//! Diagnostic: show that the raw composite paper-fit ACF breaks the
//! Durbin–Levinson recursion and that `pd_project` repairs it.
use rand::{rngs::StdRng, SeedableRng};
use svbr_lrd::acf::CompositeAcf;
use svbr_lrd::davies_harte::pd_project;
use svbr_lrd::hosking::HoskingSampler;
use svbr_lrd::LrdError;

fn main() {
    let acf = CompositeAcf::paper_fit();
    let mut raw = HoskingSampler::new(&acf).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    let failed_at = (0..200).find_map(|_| match raw.step(&mut rng) {
        Ok(_) => None,
        Err(LrdError::NotPositiveDefinite { lag }) => Some(lag),
        Err(e) => panic!("{e}"),
    });
    println!("raw composite ACF: recursion not positive definite at lag {failed_at:?}");

    let projected = pd_project(&acf, 2048).unwrap();
    let mut fixed = HoskingSampler::new(&projected).unwrap();
    let mut min_v = f64::INFINITY;
    for _ in 0..2048 {
        let st = fixed.step(&mut rng).unwrap();
        min_v = min_v.min(st.cond_var);
    }
    println!("projected ACF: 2048 exact steps OK, min conditional variance {min_v:.3e}");
    let max_dev = (0..2048)
        .map(|k| {
            use svbr_lrd::acf::Acf;
            (projected.r(k) - acf.r(k)).abs()
        })
        .fold(0.0f64, f64::max);
    println!("max pointwise ACF correction: {max_dev:.3e}");
}
