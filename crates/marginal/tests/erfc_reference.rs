//! Accuracy gates for `erfc` and `Φ` against a 50-digit reference table.
//!
//! `data/erfc_reference.txt` holds one row per point: a kind (`e` for
//! `erfc(x)`, `n` for `Φ(x)`), the bits of `x`, and the bits of the
//! correctly rounded f64 value. It covers 2,400 points on [−6, 27] for
//! `erfc` and 2,400 on [−38, 8.3] for `Φ` (a uniform grid plus seeded
//! random points), and every `erfc` branch edge (±0.84375, ±1.25,
//! ±1/0.35, ±6, ±28) together with its neighbouring f64s. It was
//! generated with mpmath at 50 digits:
//!
//! ```python
//! import math, random, struct, mpmath
//! mpmath.mp.dps = 50
//! def hx(v): return '%016x' % struct.unpack('<Q', struct.pack('<d', v))[0]
//! def f64(v):  # correctly rounded, subnormals included
//!     if abs(v) < 2.0**-1022:
//!         return math.copysign(int(mpmath.nint(abs(v) * 2**1074)) * 5e-324, v)
//!     return float(v)
//! ref = {'e': lambda x: mpmath.erfc(x),
//!        'n': lambda x: mpmath.erfc(-x / mpmath.sqrt(2)) / 2}
//! rng = random.Random(24)
//! pts = []
//! for k, lo, hi in [('e', -6.0, 27.0), ('n', -38.0, 8.3)]:
//!     pts += [(k, lo + (hi - lo) * i / 1999) for i in range(2000)]
//!     pts += [(k, rng.uniform(lo, hi)) for _ in range(400)]
//! for e in [0.84375, 1.25, 1 / 0.35, 6.0, 28.0]:
//!     for x in [e, -e]:
//!         pts += [('e', v) for v in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))]
//! for k, x in pts:
//!     print(k, hx(x), hx(f64(ref[k](mpmath.mpf(x)))))
//! ```
//!
//! Gates: `erfc` within 4 ulp everywhere; `Φ` within 16 ulp on [−3, 8.3]
//! and within `4 + 2x²` ulp below −3. The tail allowance is not erfc's
//! error: `Φ(x) = erfc(−x/√2)/2`, erfc's relative slope at `t` is `2t`,
//! so rounding `t = x/√2` alone shifts the result by up to ~x² ulp — an
//! exact erfc could not do better.

use svbr_marginal::norm_cdf;
use svbr_marginal::special::erfc;

const TABLE: &str = include_str!("data/erfc_reference.txt");

struct Row {
    kind: char,
    x: f64,
    reference: f64,
}

fn rows() -> Vec<Row> {
    TABLE
        .lines()
        .map(|line| {
            let mut f = line.split_whitespace();
            let kind = f.next().and_then(|k| k.chars().next()).expect("kind");
            let mut bits = || {
                let h = f.next().expect("hex field");
                f64::from_bits(u64::from_str_radix(h, 16).expect("hex"))
            };
            let x = bits();
            let reference = bits();
            Row { kind, x, reference }
        })
        .collect()
}

/// Distance in units of the last place between two non-negative f64s
/// (adjacent values, subnormals included, are 1 apart).
fn ulps(got: f64, want: f64) -> u64 {
    assert!(
        got >= 0.0 && want >= 0.0,
        "non-negative values expected: {got} vs {want}"
    );
    got.to_bits().abs_diff(want.to_bits())
}

#[test]
fn table_covers_both_functions_and_every_branch_edge() {
    let rows = rows();
    let count = |k: char| rows.iter().filter(|r| r.kind == k).count();
    assert!(count('e') >= 2_000, "erfc rows: {}", count('e'));
    assert!(count('n') >= 2_000, "norm_cdf rows: {}", count('n'));
    for edge in [0.84375f64, 1.25, 1.0 / 0.35, 6.0, 28.0] {
        for x in [edge, -edge] {
            for v in [x, x.next_up(), x.next_down()] {
                assert!(
                    rows.iter()
                        .any(|r| r.kind == 'e' && r.x.to_bits() == v.to_bits()),
                    "branch edge {v} missing"
                );
            }
        }
    }
}

#[test]
fn erfc_within_4_ulp_of_the_reference() {
    let mut worst = (0u64, 0.0f64);
    for r in rows().iter().filter(|r| r.kind == 'e') {
        let u = ulps(erfc(r.x), r.reference);
        if u > worst.0 {
            worst = (u, r.x);
        }
    }
    assert!(worst.0 <= 4, "erfc: {} ulp at x = {}", worst.0, worst.1);
}

#[test]
fn norm_cdf_within_its_ulp_budget() {
    let mut worst_body = (0u64, 0.0f64);
    let mut worst_tail = (0.0f64, 0.0f64);
    for r in rows().iter().filter(|r| r.kind == 'n') {
        let u = ulps(norm_cdf(r.x), r.reference);
        if r.x >= -3.0 {
            if u > worst_body.0 {
                worst_body = (u, r.x);
            }
        } else {
            let share = u as f64 / (4.0 + 2.0 * r.x * r.x);
            if share > worst_tail.0 {
                worst_tail = (share, r.x);
            }
        }
    }
    assert!(
        worst_body.0 <= 16,
        "norm_cdf on [-3, 8.3]: {} ulp at x = {}",
        worst_body.0,
        worst_body.1
    );
    assert!(
        worst_tail.0 <= 1.0,
        "norm_cdf below -3: {:.2} of the (4 + 2x^2)-ulp budget at x = {}",
        worst_tail.0,
        worst_tail.1
    );
}
