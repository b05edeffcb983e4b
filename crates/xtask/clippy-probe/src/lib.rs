//! Seeded violations for `check.sh`: each item below must draw exactly the
//! clippy diagnostic named in its doc comment. Never fix them.

// Mirrors crates/obsv/src/lib.rs.
#![warn(clippy::panic, clippy::unreachable)]

use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// `clippy::unwrap_used`
pub fn unwrap(x: Option<u8>) -> u8 {
    x.unwrap()
}

/// `clippy::expect_used`
pub fn expect(x: Option<u8>) -> u8 {
    x.expect("seeded")
}

/// `clippy::float_cmp`
pub fn float_compare(x: f64, y: f64) -> bool {
    x == y
}

/// `clippy::print_stdout`
pub fn print() {
    println!("seeded");
}

/// `clippy::panic`
pub fn panics() {
    panic!("seeded");
}

/// `clippy::unreachable`
pub fn unreachable() {
    unreachable!("seeded");
}

/// `clippy::disallowed_methods`: `std::thread::spawn`
pub fn spawn() {
    let _ = std::thread::spawn(|| ()).join();
}

/// `clippy::disallowed_methods`: `std::thread::scope`
pub fn scope() {
    std::thread::scope(|_| ());
}

/// `clippy::disallowed_methods` (`std::time::Instant::now`) and
/// `clippy::disallowed_types` (`std::time::Instant`)
pub fn now() -> Instant {
    Instant::now()
}

/// `clippy::disallowed_methods`: `std::time::SystemTime::now`
pub fn wall_clock() -> std::time::SystemTime {
    std::time::SystemTime::now()
}

/// `clippy::disallowed_methods`: `std::sync::mpsc::channel`
pub fn channel() {
    let (tx, rx) = std::sync::mpsc::channel::<u8>();
    let _ = (tx, rx);
}

/// `clippy::disallowed_methods`: `std::panic::catch_unwind`
pub fn catch() -> bool {
    std::panic::catch_unwind(|| ()).is_ok()
}

/// `clippy::disallowed_types`: `std::collections::HashMap`
pub fn map() -> HashMap<u8, u8> {
    HashMap::new()
}

/// `clippy::disallowed_types`: `std::collections::HashSet`
pub fn set() -> HashSet<u8> {
    HashSet::new()
}

/// `unfulfilled_lint_expectations`: nothing here unwraps.
#[expect(clippy::unwrap_used, reason = "seeded stale expectation")]
pub fn stale() {}
