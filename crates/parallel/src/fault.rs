//! Deterministic fault injection for the robustness harness.
//!
//! A [`FaultPlan`] is a pure function from coordinates — `(epoch,
//! unit, attempt)` — to injected failures, derived from a single
//! SplitMix64 seed. Nothing is sampled statefully: the same plan
//! replayed over the same workload injects exactly the same faults,
//! so a soak-test failure reproduces from its seed alone (the same
//! discipline as `gfd_util::prop`'s seed-replay harness).
//!
//! Three failure families, matching what a long-lived service actually
//! sees:
//!
//! * **worker panics** — a unit's execution panics mid-enumeration;
//!   transient ones succeed on retry, *sticky* ones panic on every
//!   attempt and must end in quarantine, not an abort and not a
//!   silent drop ([`FaultPlan::panic_attempts`]);
//! * **stragglers** — a unit sleeps before each attempt, so the unit
//!   loop's cursor and retries run against genuinely slow workers
//!   ([`FaultPlan::straggle_for`]);
//! * **repair faults** — the incremental repair path panics or
//!   silently drifts at chosen epochs, exercising the
//!   catch-and-degrade and sampled-oracle paths
//!   ([`FaultPlan::repair_panics`], [`FaultPlan::drifts`]).
//!
//! Malformed-batch injection ([`FaultPlan::corrupts_batch`]) is
//! decided here but *performed by the test driver* (it corrupts a
//! copy of the batch before `ingest`); the service's only involvement
//! is rejecting what arrives.
//!
//! A fourth family targets the durable write-ahead log
//! (`gfd_parallel::wal`): **crash faults** ([`FaultPlan::crashes`])
//! kill the service at seed-chosen epochs and damage its on-disk log
//! the way real crashes do — an un-fsynced tail lost wholesale
//! ([`CrashKind::KillBeforeFsync`]), a frame cut mid-payload
//! ([`CrashKind::TornTail`]) or mid-header ([`CrashKind::ShortRead`]),
//! a flipped bit from media rot ([`CrashKind::BitFlip`]). Like the
//! malformed-batch family, the *decision* is pure seed arithmetic here
//! and the *damage* is performed by the kill-and-recover soak driver
//! on a copy of the log file; `wal::recover` must absorb all of it.
//!
//! A fifth, **short writes** ([`FaultPlan::short_write`]), is what a
//! full disk does to the log while the service runs: an epoch's append
//! writes a seed-chosen prefix of its frame and fails. The service
//! performs it, counts it in `ServiceStats::log_write_errors`, drops to
//! in-memory operation and keeps committing; recovering the file lands
//! on the last whole frame.

use std::time::Duration;

use gfd_util::Rng;

/// Deterministic fault-injection plan; see the module docs. The
/// default plan injects nothing — a service configured with
/// `FaultPlan::default()` behaves identically to one with no plan.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Root seed; every decision derives from it.
    pub seed: u64,
    /// Probability a unit's execution panics (first attempt).
    pub unit_panic_p: f64,
    /// Of panicking units, the fraction whose panic is *sticky*
    /// (recurs on every retry, forcing quarantine).
    pub sticky_p: f64,
    /// Probability a unit straggles (sleeps before executing).
    pub straggle_p: f64,
    /// How long a straggler sleeps.
    pub straggle: Duration,
    /// Probability the incremental repair path panics at an epoch.
    pub repair_panic_p: f64,
    /// Probability detector state silently drifts at an epoch (the
    /// sampled oracle is then pointed at the drifted rule, modeling a
    /// repair bug caught by the invariant check).
    pub drift_p: f64,
    /// Probability the driver corrupts a batch before ingest.
    pub malformed_batch_p: f64,
    /// Probability the service "crashes" right after committing an
    /// epoch (the soak driver kills it and damages the on-disk log per
    /// [`FaultPlan::crashes`]).
    pub crash_p: f64,
    /// Probability the durable-log append of an epoch fails partway, as
    /// on a full disk ([`FaultPlan::short_write`]).
    pub short_write_p: f64,
}

/// How a simulated crash damages the on-disk write-ahead log. The
/// soak driver performs the damage on a copy of the log file; the
/// recovery path must truncate and replay around all of it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CrashKind {
    /// The process dies with appended-but-unsynced frames still in the
    /// page cache: the file survives only up to the last fsync.
    KillBeforeFsync,
    /// The final frame is cut mid-payload (a partial write made it to
    /// disk before power loss).
    TornTail,
    /// One bit somewhere past the base snapshot flips (media rot /
    /// partial sector damage).
    BitFlip,
    /// The final frame is cut inside its *header* — shorter than any
    /// parseable record.
    ShortRead,
}

/// Domain-separation tags so the per-family decision streams are
/// independent even at identical coordinates.
const DOM_PANIC: u64 = 0x7001;
const DOM_STICKY: u64 = 0x7002;
const DOM_STRAGGLE: u64 = 0x7003;
const DOM_REPAIR: u64 = 0x7004;
const DOM_DRIFT: u64 = 0x7005;
const DOM_MALFORMED: u64 = 0x7006;
const DOM_CRASH: u64 = 0x7007;
const DOM_CRASH_KIND: u64 = 0x7008;
const DOM_CRASH_CUT: u64 = 0x7009;
const DOM_CRASH_FLIP: u64 = 0x700A;
const DOM_SHORT_WRITE: u64 = 0x700B;
const DOM_SHORT_WRITE_CUT: u64 = 0x700C;

impl FaultPlan {
    /// One uniform draw for `(domain, a, b)` — stateless and
    /// replay-stable.
    fn roll(&self, domain: u64, a: u64, b: u64) -> f64 {
        let mixed = self
            .seed
            .wrapping_add(domain.wrapping_mul(0x9E3779B97F4A7C15))
            .wrapping_add(a.wrapping_mul(0xBF58476D1CE4E5B9))
            .wrapping_add(b.wrapping_mul(0x94D049BB133111EB));
        Rng::seed_from_u64(mixed).next_f64()
    }

    /// How many leading attempts of `(epoch, unit)` panic: `0` for a
    /// healthy unit, `1` for a transient fault (the first retry
    /// succeeds), `u32::MAX` for a sticky fault (every attempt panics
    /// — the executor must quarantine and report it).
    pub fn panic_attempts(&self, epoch: u64, unit: usize) -> u32 {
        if self.unit_panic_p <= 0.0 || self.roll(DOM_PANIC, epoch, unit as u64) >= self.unit_panic_p
        {
            return 0;
        }
        if self.roll(DOM_STICKY, epoch, unit as u64) < self.sticky_p {
            u32::MAX
        } else {
            1
        }
    }

    /// The injected sleep of `(epoch, unit)`, if it straggles.
    pub fn straggle_for(&self, epoch: u64, unit: usize) -> Option<Duration> {
        if self.straggle_p > 0.0 && self.roll(DOM_STRAGGLE, epoch, unit as u64) < self.straggle_p {
            Some(self.straggle)
        } else {
            None
        }
    }

    /// True if the incremental repair path panics at `epoch`.
    pub fn repair_panics(&self, epoch: u64) -> bool {
        self.repair_panic_p > 0.0 && self.roll(DOM_REPAIR, epoch, 0) < self.repair_panic_p
    }

    /// True if detector state drifts at `epoch`.
    pub fn drifts(&self, epoch: u64) -> bool {
        self.drift_p > 0.0 && self.roll(DOM_DRIFT, epoch, 0) < self.drift_p
    }

    /// True if the driver should corrupt the batch for `epoch` before
    /// ingesting it (the service must reject it and leave the epoch
    /// untouched).
    pub fn corrupts_batch(&self, epoch: u64) -> bool {
        self.malformed_batch_p > 0.0 && self.roll(DOM_MALFORMED, epoch, 0) < self.malformed_batch_p
    }

    /// Whether the service crashes right after committing `epoch`, and
    /// if so how the crash damages the log file. Pure seed arithmetic:
    /// the same plan crashes at the same epochs in the same ways.
    pub fn crashes(&self, epoch: u64) -> Option<CrashKind> {
        if self.crash_p <= 0.0 || self.roll(DOM_CRASH, epoch, 0) >= self.crash_p {
            return None;
        }
        let kind = match (self.roll(DOM_CRASH_KIND, epoch, 0) * 4.0) as u32 {
            0 => CrashKind::KillBeforeFsync,
            1 => CrashKind::TornTail,
            2 => CrashKind::BitFlip,
            _ => CrashKind::ShortRead,
        };
        Some(kind)
    }

    /// A uniform draw in `[0, 1)` for where a crash at `epoch` cuts or
    /// flips — the soak driver scales it onto the file region the
    /// [`CrashKind`] targets. Separate domains keep cut points and
    /// flip positions independent of the crash decision itself.
    pub fn crash_cut_point(&self, epoch: u64) -> f64 {
        self.roll(DOM_CRASH_CUT, epoch, 0)
    }

    /// Which bit (0–7) a [`CrashKind::BitFlip`] crash at `epoch`
    /// flips at its chosen byte.
    pub fn crash_flip_bit(&self, epoch: u64) -> u32 {
        (self.roll(DOM_CRASH_FLIP, epoch, 0) * 8.0) as u32 & 7
    }

    /// Whether the durable-log append of `epoch` fails partway, and if
    /// so a draw `f` in `[0, 1)` for how much of its frame reaches the
    /// file: `1 + ⌊f · (len − 1)⌋` of its `len` bytes, at least one and
    /// never all.
    pub fn short_write(&self, epoch: u64) -> Option<f64> {
        (self.short_write_p > 0.0 && self.roll(DOM_SHORT_WRITE, epoch, 0) < self.short_write_p)
            .then(|| self.roll(DOM_SHORT_WRITE_CUT, epoch, 0))
    }
}

/// Silences the default panic-hook output for the many *injected*
/// panics a fault test triggers, forwarding everything else. Test
/// plumbing shared by the executor/service tests and the soak
/// harness — not part of the public API.
#[doc(hidden)]
pub fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains("injected"));
            if !injected {
                default(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_injects_nothing() {
        let p = FaultPlan::default();
        for epoch in 0..50 {
            assert!(!p.repair_panics(epoch));
            assert!(!p.drifts(epoch));
            assert!(!p.corrupts_batch(epoch));
            assert_eq!(p.crashes(epoch), None);
            assert_eq!(p.short_write(epoch), None);
            for unit in 0..50 {
                assert_eq!(p.panic_attempts(epoch, unit), 0);
                assert!(p.straggle_for(epoch, unit).is_none());
            }
        }
    }

    #[test]
    fn decisions_are_replay_stable_and_seed_sensitive() {
        let mk = |seed| FaultPlan {
            seed,
            unit_panic_p: 0.5,
            sticky_p: 0.5,
            straggle_p: 0.5,
            straggle: Duration::from_millis(1),
            repair_panic_p: 0.5,
            drift_p: 0.5,
            malformed_batch_p: 0.5,
            crash_p: 0.5,
            short_write_p: 0.5,
        };
        let (a, b, c) = (mk(1), mk(1), mk(2));
        let fingerprint = |p: &FaultPlan| {
            (0..64u64)
                .map(|e| {
                    (0..8usize)
                        .map(|u| p.panic_attempts(e, u).min(2) as u64)
                        .sum::<u64>()
                        + p.repair_panics(e) as u64
                        + 8 * p.short_write(e).is_some() as u64
                        + match p.crashes(e) {
                            None => 0,
                            Some(k) => 16 + k as u64,
                        }
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(fingerprint(&a), fingerprint(&b), "same seed must replay");
        assert_ne!(fingerprint(&a), fingerprint(&c), "seeds must differ");
    }

    #[test]
    fn probability_one_is_certain_and_sticky() {
        let p = FaultPlan {
            unit_panic_p: 1.0,
            sticky_p: 1.0,
            ..Default::default()
        };
        for unit in 0..20 {
            assert_eq!(p.panic_attempts(7, unit), u32::MAX);
        }
    }

    #[test]
    fn crash_family_covers_all_kinds_and_bounds_its_draws() {
        let p = FaultPlan {
            seed: 0xC0FFEE,
            crash_p: 1.0,
            short_write_p: 1.0,
            ..Default::default()
        };
        let mut seen = std::collections::HashSet::new();
        for epoch in 0..200 {
            let kind = p.crashes(epoch).expect("crash_p = 1.0 always crashes");
            seen.insert(std::mem::discriminant(&kind));
            let cut = p.crash_cut_point(epoch);
            assert!((0.0..1.0).contains(&cut), "cut point out of range: {cut}");
            assert!(p.crash_flip_bit(epoch) < 8);
            let short = p
                .short_write(epoch)
                .expect("short_write_p = 1.0 always cuts");
            assert!(
                (0.0..1.0).contains(&short),
                "short write out of range: {short}"
            );
        }
        assert_eq!(seen.len(), 4, "200 epochs must hit every crash kind");
    }
}
