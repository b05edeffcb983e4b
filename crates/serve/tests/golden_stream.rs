//! Golden hashes of served streams, pinned across commits.
//!
//! The kill/resume byte-compares run one build on both sides, so a change
//! that reseeds every stream uniformly passes them. This test pins the
//! bytes themselves: six 256-sample chunks from `GenState::fresh(seed)`
//! over the serve model (fGn H = 0.8 through `Lognormal(1, 0.25)`, an
//! 8,193-lag prepared table), on three tier plans. Each hash is FNV-1a 64
//! over the concatenated wire bodies (`encode_chunk`). A deliberate change
//! to served bytes updates the table below and says so in its commit.

use svbr::lrd::acf::FgnAcf;
use svbr::marginal::transform::GaussianTransform;
use svbr::marginal::Lognormal;
use svbr_resilience::degrade::{prepare_table, GeneratorTier};
use svbr_serve::session::encode_chunk;
use svbr_serve::{generate_chunk, GenState};

const CHUNK_LEN: usize = 256;

/// FNV-1a 64 over `bytes`, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

#[test]
fn served_streams_match_golden_hashes() {
    use GeneratorTier::{DaviesHarte as Dh, HoskingExact as Exact, TruncatedAr as Ar};
    let acf = FgnAcf::new(0.8).unwrap_or_else(|e| panic!("{e}"));
    let (table, _) = prepare_table(acf, 8193).unwrap_or_else(|e| panic!("{e}"));
    let marginal = Lognormal::from_moments(1.0, 0.25).unwrap_or_else(|e| panic!("{e}"));
    let transform = GaussianTransform::new(marginal);

    let plans: [(&str, [GeneratorTier; 6]); 3] = [
        ("exact", [Exact; 6]),
        ("ar", [Exact, Exact, Ar, Ar, Ar, Ar]),
        ("dh", [Exact, Ar, Dh, Dh, Dh, Dh]),
    ];
    // (seed, [exact, ar, dh] stream hashes).
    let golden: [(u64, [u64; 3]); 3] = [
        (
            1,
            [
                0x2aee_0cf4_ec2b_17d6,
                0xfd2b_84ff_1cbc_0cd6,
                0x2353_5f4c_b8aa_9318,
            ],
        ),
        (
            7,
            [
                0x960d_e74f_9be2_b612,
                0xd559_3ae9_b60f_2a54,
                0x3785_495d_fd32_b1a4,
            ],
        ),
        (
            42,
            [
                0xbaf8_b677_ec4c_640a,
                0x9279_d458_e4ef_104a,
                0x3cce_106b_b465_5a87,
            ],
        ),
    ];

    let mut mismatches = Vec::new();
    for (seed, want) in golden {
        for ((plan, tiers), want) in plans.iter().zip(want) {
            let mut st = GenState::fresh(seed);
            let mut hash = 0xcbf2_9ce4_8422_2325;
            for (i, &tier) in tiers.iter().enumerate() {
                let (post, ys) = generate_chunk(&st, tier, &table, &transform, CHUNK_LEN)
                    .unwrap_or_else(|e| panic!("seed {seed}, {plan}, chunk {i}: {e}"));
                hash = fnv1a(hash, encode_chunk(i as u64, tier, &ys).as_bytes());
                st = post;
            }
            if hash != want {
                mismatches.push(format!(
                    "seed {seed}, plan {plan}: {hash:016x}, want {want:016x}"
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
