//! # svbr-profile — span-tree profiling over obsv traces
//!
//! [`SpanForest`] is the workspace's one span model: every tool that
//! reads spans builds one. It rebuilds thread-aware call trees from the
//! flat [`svbr_obsv::Event`] stream (spans carry their start timestamp and
//! thread ordinal), computes self-vs-total time per call path, extracts the
//! critical path, exports flamegraph folded stacks, and groups traced spans
//! by trace id across processes ([`SpanForest::traces`]). `repro profile`,
//! `svbr-xtask obsv-report` (per-name and hot-path tables),
//! `svbr-xtask trace-report` and svbr-benchmark's layer attribution all
//! read it.
//!
//! ```
//! use svbr_obsv::Event;
//! let trace = [
//!     r#"{"t":"span","name":"inner","start_us":10,"dur_us":30,"tid":0}"#,
//!     r#"{"t":"span","name":"outer","start_us":0,"dur_us":100,"tid":0}"#,
//! ];
//! let events: Vec<Event> = trace.iter().filter_map(|l| Event::parse(l)).collect();
//! let forest = svbr_profile::SpanForest::from_events(&events);
//! assert_eq!(forest.roots().len(), 1);
//! assert_eq!(forest.self_us(forest.roots()[0]), 70);
//! let folded = svbr_profile::to_folded(&forest);
//! assert!(folded.contains("outer;inner 30"));
//! ```

#![forbid(unsafe_code)]

pub mod folded;
pub mod report;
pub mod tree;

pub use folded::{parse_folded, to_folded};
pub use report::render;
pub use tree::{PathStats, SpanForest, SpanNode};
