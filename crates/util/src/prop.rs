//! A tiny property-testing harness (offline stand-in for `proptest`).
//!
//! A property is a closure over a seeded [`Rng`]; the harness runs it
//! for `cases` consecutive seeds and panics with the failing seed on
//! the first violation, so failures replay deterministically:
//!
//! ```
//! use gfd_util::prop::check;
//! check("addition commutes", 64, |rng| {
//!     let a = rng.gen_range(0..1000);
//!     let b = rng.gen_range(0..1000);
//!     if a + b != b + a {
//!         return Err(format!("{a} + {b}"));
//!     }
//!     Ok(())
//! });
//! ```

use crate::rng::Rng;

/// Runs `property` for seeds `0..cases`; panics on the first failure,
/// naming the property and the seed that reproduces it.
pub fn check<F>(name: &str, cases: u64, mut property: F)
where
    F: FnMut(&mut Rng) -> Result<(), String>,
{
    for seed in 0..cases {
        let mut rng = Rng::seed_from_u64(seed);
        if let Err(msg) = property(&mut rng) {
            panic!("property `{name}` failed at seed {seed}: {msg}");
        }
    }
}

/// A property's case budget: `full`, or `smoke` when the `BENCH_SMOKE`
/// environment variable is set — the fast pull-request gate that
/// replays a few seeds of every property before the full run.
pub fn cases(full: u64, smoke: u64) -> u64 {
    if std::env::var_os("BENCH_SMOKE").is_some() {
        smoke
    } else {
        full
    }
}

/// `assert!`-style helper producing the `Result` form [`check`] wants.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
    ($cond:expr) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_is_silent() {
        check("tautology", 16, |_| Ok(()));
    }

    #[test]
    #[should_panic(expected = "failed at seed 0")]
    fn failing_property_names_seed() {
        check("contradiction", 4, |_| Err("nope".into()));
    }

    /// Both modes, in one test: no other test of this crate reads
    /// `BENCH_SMOKE`, and the caller's setting is put back.
    #[test]
    fn the_budget_follows_the_mode() {
        let caller = std::env::var_os("BENCH_SMOKE");
        std::env::set_var("BENCH_SMOKE", "1");
        assert_eq!(cases(80, 16), 16);
        std::env::remove_var("BENCH_SMOKE");
        assert_eq!(cases(80, 16), 80);
        if let Some(value) = caller {
            std::env::set_var("BENCH_SMOKE", value);
        }
    }

    #[test]
    fn prop_assert_macro_forms() {
        check("macro", 4, |rng| {
            let x = rng.gen_range(0..10);
            prop_assert!(x < 10);
            prop_assert!(x < 10, "x was {x}");
            Ok(())
        });
    }
}
