//! # svbr — self-similar VBR video modeling and simulation
//!
//! A full reproduction of *"Modeling and Simulation of Self-Similar
//! Variable Bit Rate Compressed Video: A Unified Approach"* (Huang,
//! Devetsikiotis, Lambadaris, Kaye — ACM SIGCOMM '95), built as a Rust
//! workspace. This umbrella crate re-exports every subsystem:
//!
//! * [`lrd`] — LRD/SRD Gaussian processes: ACF models (fGn, FARIMA,
//!   composite knee), Hosking's exact generator, Davies–Harte, FFT, and the
//!   AR(1) and TES baselines.
//! * [`stats`] — estimators: sample ACF, variance–time, R/S, periodogram/
//!   GPH, composite-ACF fitting, histograms, quantiles, K-S.
//! * [`marginal`] — distributions (Normal, Gamma, Pareto, Lognormal,
//!   empirical/histogram inversion) and the inverse-CDF
//!   transform with its attenuation factor.
//! * [`video`] — the synthetic MPEG-1 VBR source substrate (scene-based
//!   LRD model, GOP structure, frame traces, Table-1 reference trace).
//! * [`queue`] — slotted Lindley queue, ATM-multiplexer conventions,
//!   Monte-Carlo overflow estimation, transient analysis.
//! * [`is`] — importance sampling for rare overflow events: twisted
//!   background process, exact likelihood ratios, valley search.
//! * [`model`] — the unified model itself: the 4-step fitting pipeline,
//!   the composite I-B-P model, validation reports.
//! * [`resilience`] — supervised, checkpointable runs: atomic bit-exact
//!   checkpoints, `catch_unwind` supervision with retry budgets, the
//!   generator degradation ladder, and deterministic fault injection.
//! * [`par`] — the deterministic replication executor: per-replication
//!   seed derivation from `(master_seed, index)` and static block
//!   sharding, so every threaded entry point is bit-identical at any
//!   thread count.
//!
//! ## Quickstart
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use svbr::model::{UnifiedFit, UnifiedOptions, BackgroundKind};
//!
//! // An "empirical" trace (the repo's stand-in for the paper's movie).
//! let trace = svbr::video::reference_trace_intra_of_len(60_000);
//!
//! // Fit the unified model: Ĥ, composite SRD+LRD ACF, marginal, attenuation.
//! let fit = UnifiedFit::fit(&trace.as_f64(), &UnifiedOptions::default()).unwrap();
//!
//! // Generate synthetic VBR traffic with the same marginal + ACF structure.
//! let generator = fit.generator(BackgroundKind::SrdLrd, 4096).unwrap();
//! let mut rng = StdRng::seed_from_u64(7);
//! let synthetic = generator.generate(4096, true, &mut rng).unwrap();
//! assert_eq!(synthetic.len(), 4096);
//! ```

#![forbid(unsafe_code)]

pub use svbr_core as model;
pub use svbr_domain as domain;
pub use svbr_is as is;
pub use svbr_lrd as lrd;
pub use svbr_marginal as marginal;
pub use svbr_par as par;
pub use svbr_queue as queue;
pub use svbr_resilience as resilience;
pub use svbr_stats as stats;
pub use svbr_video as video;
