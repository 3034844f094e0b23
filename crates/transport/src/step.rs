//! What every transport step does around its delivery, written once for
//! the fluid (`tcp.rs`), rate (`rate.rs`) and bonded (`bond.rs`)
//! engines: [`begin`] samples the fault plane, a stalled step hands the
//! engine's connections to the [`StallTimer`], and every step books what
//! it delivered in the [`Ledger`]. The engines keep only their delivery
//! step, and their own arithmetic on the fault multipliers (exactly `1.0`
//! with no plane installed).

use fiveg_simcore::faults::{self, FaultKind};
use fiveg_simcore::recovery::{self, RecoveryKind};
use fiveg_simcore::{budget, guard, telemetry};

/// The backoff that resets the connections: 31 s into a stall at a 1 s
/// floor.
const RESET_BACKOFF: u32 = 5;

/// The fault plane at one step's start time.
pub(crate) struct StepFaults {
    /// `1 + magnitude` inside an RTT-spike window.
    pub(crate) rtt_mult: f64,
    /// The magnitude (at least 1) inside a loss burst.
    pub(crate) loss_mult: f64,
    /// Inside a loss burst: a loss is repaired by a fast retransmit.
    pub(crate) loss_burst: bool,
    /// Inside a stall window: the step delivers nothing.
    pub(crate) stalled: bool,
}

/// Opens the step at `t`: charges one budget event, moves the telemetry
/// clock and samples the fault plane, which costs one flag load when no
/// plane is installed.
#[inline]
pub(crate) fn begin(t: f64) -> StepFaults {
    budget::charge(1);
    telemetry::clock(t);
    if !faults::enabled() {
        return StepFaults {
            rtt_mult: 1.0,
            loss_mult: 1.0,
            loss_burst: false,
            stalled: false,
        };
    }
    let burst = faults::magnitude(FaultKind::LossBurst, t);
    StepFaults {
        rtt_mult: faults::magnitude(FaultKind::RttSpike, t).map_or(1.0, |m| 1.0 + m.max(0.0)),
        loss_mult: burst.map_or(1.0, |m| m.max(1.0)),
        loss_burst: burst.is_some(),
        stalled: faults::is_active(FaultKind::StallWindow, t),
    }
}

/// The RFC 6298 retransmission timer across a stall window: armed at
/// `max(2·RTT, 1 s)` on the stall's first step, doubled on each backoff
/// (which collapses the connections), and the 5th backoff resets the
/// connections, so recovery is a fresh ramp rather than a resumed plateau.
pub(crate) struct StallTimer {
    floor_s: f64,
    /// Start of the stall in progress; `None` while delivering.
    since: Option<f64>,
    rto_s: f64,
    next_at: f64,
    backoffs: u32,
    /// Recovery-note wording: an engine prefix and what a backoff
    /// collapses.
    who: &'static str,
    what: &'static str,
}

impl StallTimer {
    pub(crate) fn new(rtt_s: f64, who: &'static str, what: &'static str) -> StallTimer {
        StallTimer {
            floor_s: (2.0 * rtt_s).max(1.0),
            since: None,
            rto_s: 0.0,
            next_at: 0.0,
            backoffs: 0,
            who,
            what,
        }
    }

    /// A delivering step: the next stall arms the timer afresh.
    #[inline]
    pub(crate) fn clear(&mut self) {
        self.since = None;
    }

    /// A stalled step at `t`. A due timer runs `collapse` on the engine's
    /// `conns`, and on the 5th backoff `reset` after it.
    pub(crate) fn stalled<C>(
        &mut self,
        t: f64,
        conns: &mut C,
        collapse: impl FnOnce(&mut C),
        reset: impl FnOnce(&mut C),
    ) {
        let since = *self.since.get_or_insert_with(|| {
            self.rto_s = self.floor_s;
            self.next_at = t + self.floor_s;
            self.backoffs = 0;
            t
        });
        if t < self.next_at {
            return;
        }
        self.backoffs += 1;
        let (rto_s, backoffs, who, what) = (self.rto_s, self.backoffs, self.who, self.what);
        telemetry::count("transport/rto", 1);
        telemetry::observe("transport/rto_backoff_s", rto_s);
        collapse(conns);
        recovery::record(RecoveryKind::TcpRto, t, rto_s, t - since, || {
            format!("{who}backoff #{backoffs}, {what} collapsed")
        });
        if backoffs == RESET_BACKOFF {
            telemetry::count("transport/conn_reset", 1);
            reset(conns);
            recovery::record(RecoveryKind::TcpConnReset, t, rto_s, t - since, || {
                format!("{who}reset after {backoffs} backoffs")
            });
        }
        self.rto_s *= 2.0;
        self.next_at = t + self.rto_s;
        // A shrinking or non-finite RTO would let a stall window fire
        // timers unboundedly often.
        let rto_s = self.rto_s;
        guard::check(
            "transport",
            "rto-bounds",
            rto_s.is_finite() && rto_s >= self.floor_s,
            t,
            || format!("RTO {rto_s}s below the floor after backoff #{backoffs}"),
        );
    }
}

/// The goodput ledger: the megabits delivered, and one sample per whole
/// second of the run.
pub(crate) struct Ledger {
    delivered_mb: f64,
    per_second: Vec<f64>,
    /// Megabits booked since `second_start`.
    acc_mb: f64,
    second_start: f64,
    next_second: f64,
}

impl Ledger {
    pub(crate) fn new() -> Ledger {
        Ledger {
            delivered_mb: 0.0,
            per_second: Vec::new(),
            acc_mb: 0.0,
            second_start: 0.0,
            next_second: 1.0,
        }
    }

    /// Books `mb` megabits delivered in the current step.
    #[inline]
    pub(crate) fn add(&mut self, mb: f64) {
        self.delivered_mb += mb;
        self.acc_mb += mb;
    }

    /// Ends a step at `t`; true when it closed a second.
    #[inline]
    pub(crate) fn tick(&mut self, t: f64) -> bool {
        if t < self.next_second {
            return false;
        }
        self.per_second.push(self.acc_mb);
        self.acc_mb = 0.0;
        self.next_second += 1.0;
        self.second_start = t;
        true
    }

    /// Closes a `duration_s` run whose last step ended at `t`: returns the
    /// mean goodput and the per-second samples, which must re-partition
    /// the megabits delivered (modulo float re-association). A partial
    /// last second is flushed as a rate over its real window.
    pub(crate) fn finish(mut self, t: f64, duration_s: f64) -> (f64, Vec<f64>) {
        let delivered_mb = self.delivered_mb;
        if guard::enabled() {
            let ledger: f64 = self.per_second.iter().sum::<f64>() + self.acc_mb;
            guard::check(
                "transport",
                "bytes-conserved",
                (ledger - delivered_mb).abs() <= 1e-6 * delivered_mb.abs() + 1e-9,
                duration_s,
                || format!("per-second ledger {ledger} vs delivered {delivered_mb}"),
            );
            guard::non_negative("transport", "goodput", delivered_mb, 0.0, duration_s);
        }
        let tail_s = t - self.second_start;
        if self.acc_mb > 0.0 && tail_s > 0.0 {
            self.per_second.push(self.acc_mb / tail_s);
        }
        (delivered_mb / duration_s, self.per_second)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiveg_simcore::attempt::{self, Attempt};
    use fiveg_simcore::faults::{FaultScenario, FaultSchedule};
    use fiveg_simcore::guard::GuardPolicy;

    /// Steps of a quarter second, so every step time is exact.
    const DT: f64 = 0.25;

    /// Drives `timer` through a stall of `stall_s` starting at `t0`, and
    /// returns the times of the collapses and the resets.
    fn stall(timer: &mut StallTimer, t0: f64, stall_s: f64) -> (Vec<f64>, Vec<f64>) {
        let mut fired = (Vec::new(), Vec::new());
        let mut t = t0;
        while t < t0 + stall_s {
            timer.stalled(
                t,
                &mut fired,
                |(collapses, _)| collapses.push(t - t0),
                |(_, resets)| resets.push(t - t0),
            );
            t += DT;
        }
        fired
    }

    #[test]
    fn backoffs_double_from_the_floor_and_reset_once() {
        // The recovery collector comes with a schedule; an empty one
        // injects nothing.
        let _attempt = Attempt::new()
            .faults(FaultSchedule::generate(1, &FaultScenario::quiet()))
            .guards(GuardPolicy::Record)
            .install();
        // A 20 ms RTT puts the floor at 1 s.
        let mut timer = StallTimer::new(0.02, "", "windows");
        let (collapses, resets) = stall(&mut timer, 10.0, 100.0);
        assert_eq!(collapses, [1.0, 3.0, 7.0, 15.0, 31.0, 63.0]);
        assert_eq!(resets, [31.0], "the reset fires once, on the 5th backoff");
        let drained = attempt::drain();
        assert_eq!(drained.guards.violation_count(), 0);
        let notes: Vec<(RecoveryKind, String)> = drained
            .recovery
            .into_iter()
            .map(|e| (e.kind, e.detail))
            .collect();
        assert_eq!(
            notes[0],
            (RecoveryKind::TcpRto, "backoff #1, windows collapsed".into())
        );
        assert_eq!(
            notes[4],
            (RecoveryKind::TcpRto, "backoff #5, windows collapsed".into())
        );
        assert_eq!(
            notes[5],
            (RecoveryKind::TcpConnReset, "reset after 5 backoffs".into())
        );
        assert_eq!(notes.len(), 7, "six backoffs and one reset: {notes:?}");

        // A delivering step re-arms the timer at the floor.
        timer.clear();
        let (collapses, resets) = stall(&mut timer, 200.0, 4.0);
        assert_eq!(collapses, [1.0, 3.0]);
        assert!(resets.is_empty());
    }

    #[test]
    fn the_floor_is_twice_a_long_rtt() {
        let mut timer = StallTimer::new(0.75, "bonded ", "pacing");
        let (collapses, _) = stall(&mut timer, 0.0, 10.0);
        assert_eq!(collapses, [1.5, 4.5]);
    }

    #[test]
    fn the_ledger_rolls_over_each_second_and_flushes_a_real_tail() {
        // 3.5 s at 4 Mb per second: three whole seconds and a 0.5 s tail
        // normalized back to the same rate.
        let mut ledger = Ledger::new();
        let (mut t, mut rollovers) = (0.0, 0);
        while t < 3.5 {
            ledger.add(1.0);
            t += DT;
            rollovers += usize::from(ledger.tick(t));
        }
        assert_eq!(rollovers, 3);
        assert_eq!(ledger.finish(t, 3.5), (4.0, vec![4.0, 4.0, 4.0, 4.0]));

        // A whole-second run writes no tail sample.
        let mut ledger = Ledger::new();
        let mut t = 0.0;
        while t < 2.0 {
            ledger.add(1.0);
            t += DT;
            ledger.tick(t);
        }
        assert_eq!(ledger.finish(t, 2.0), (4.0, vec![4.0, 4.0]));
    }
}
