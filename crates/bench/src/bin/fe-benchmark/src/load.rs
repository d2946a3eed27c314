//! Load drivers: closed loops, the open-loop pacer, and what a phase
//! of load leaves behind.

use crate::stats;
use std::time::{Duration, Instant};

/// How one attempted operation ended. Everything but `Ok` is a failure;
/// failures stay in the latency population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Answered, but not with the answer the generator knows is right.
    Wrong,
    /// Refused with `OVERLOADED`.
    Shed,
    Error,
}

/// The record of one phase of load on one or more threads.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    /// Measured length in seconds (the longest thread's).
    pub seconds: f64,
    /// One latency per attempt, in µs; sorted by [`Phase::finish`].
    pub latency_us: Vec<f64>,
    /// Open loops only: how long after its due time each request was
    /// sent, in µs; sorted by [`Phase::finish`].
    pub late_us: Vec<f64>,
    pub attempted: u64,
    pub wrong: u64,
    pub shed: u64,
    pub errors: u64,
}

impl Phase {
    /// Records one operation.
    pub fn record(&mut self, latency: Duration, verdict: Verdict) {
        self.latency_us.push(latency.as_secs_f64() * 1e6);
        self.count(1, verdict);
    }

    /// Counts `ops` operations with this verdict. A closed loop's step
    /// calls this for each operation it attempted; the members of a
    /// batch share the batch's latency.
    pub fn count(&mut self, ops: u32, verdict: Verdict) {
        self.attempted += u64::from(ops);
        let slot = match verdict {
            Verdict::Ok => return,
            Verdict::Wrong => &mut self.wrong,
            Verdict::Shed => &mut self.shed,
            Verdict::Error => &mut self.errors,
        };
        *slot += u64::from(ops);
    }

    pub fn absorb(&mut self, other: Phase) {
        self.seconds = self.seconds.max(other.seconds);
        self.latency_us.extend(other.latency_us);
        self.late_us.extend(other.late_us);
        self.attempted += other.attempted;
        self.wrong += other.wrong;
        self.shed += other.shed;
        self.errors += other.errors;
    }

    /// Sorts the populations; call once, after the last `absorb`.
    pub fn finish(mut self) -> Phase {
        stats::sort(&mut self.latency_us);
        stats::sort(&mut self.late_us);
        self
    }

    pub fn failed(&self) -> u64 {
        self.wrong + self.shed + self.errors
    }

    pub fn p50_us(&self) -> f64 {
        stats::percentile(&self.latency_us, 0.5)
    }

    /// Operations attempted per second of the phase.
    pub fn ops_per_s(&self) -> f64 {
        self.attempted as f64 / self.seconds
    }
}

/// Runs `step` back to back for `length`. A step times the call it
/// measures itself, [`Phase::count`]s every operation it attempted and
/// returns the latency, so checking the answer and cleaning up after it
/// stay off the latency — though not off the rate, which is operations
/// over the whole phase.
pub fn closed_loop(length: Duration, step: impl FnMut(u64, &mut Phase) -> Duration) -> Phase {
    closed_loop_while(|elapsed| elapsed < length, step)
}

/// [`closed_loop`] for as long as `go`, asked before every step with the
/// time run so far, says so.
pub fn closed_loop_while(
    mut go: impl FnMut(Duration) -> bool,
    mut step: impl FnMut(u64, &mut Phase) -> Duration,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut i = 0;
    while go(start.elapsed()) {
        let latency = step(i, &mut phase);
        phase.latency_us.push(latency.as_secs_f64() * 1e6);
        i += 1;
    }
    phase.seconds = start.elapsed().as_secs_f64();
    phase
}

/// The send schedule of an open loop: request `i` is due `i` intervals
/// after the start whatever happened to the requests before it.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub interval_ns: u64,
}

impl Schedule {
    pub fn per_second(rate: u64) -> Schedule {
        Schedule {
            interval_ns: 1_000_000_000 / rate,
        }
    }

    pub fn due_ns(&self, i: u64) -> u64 {
        i * self.interval_ns
    }

    /// What the sender does for request `i` when its clock reads
    /// `now_ns`: how long to wait, the time the latency is counted
    /// from, and how late the request goes out. The stamp is always the
    /// due time: a sender that fell behind sends at once and the wait it
    /// caused is charged to the request, not hidden by re-anchoring the
    /// schedule.
    pub fn plan(&self, i: u64, now_ns: u64) -> Plan {
        let due = self.due_ns(i);
        Plan {
            wait_ns: due.saturating_sub(now_ns),
            stamp_ns: due,
            late_ns: now_ns.saturating_sub(due),
        }
    }
}

#[derive(Debug, PartialEq, Eq)]
pub struct Plan {
    pub wait_ns: u64,
    pub stamp_ns: u64,
    pub late_ns: u64,
}

/// The last stretch before a due time is spun, not slept: a sleeping
/// thread wakes tens of µs late, which would be most of a 25 µs
/// operation's latency from its due time.
const SPIN_NS: u64 = 150_000;

/// Blocks until request `i` of `schedule` is due. Returns its due time
/// and how late it is released.
pub fn pace(schedule: Schedule, start: Instant, i: u64) -> (Instant, Duration) {
    let plan = schedule.plan(i, start.elapsed().as_nanos() as u64);
    if plan.wait_ns > SPIN_NS {
        std::thread::sleep(Duration::from_nanos(plan.wait_ns - SPIN_NS));
    }
    let due = start + Duration::from_nanos(plan.stamp_ns);
    loop {
        let now = Instant::now();
        if now >= due {
            return (due, now - due);
        }
        std::hint::spin_loop();
    }
}

/// Runs `op` on `schedule` for `length` on the calling thread; each
/// latency is counted from the request's due time.
pub fn open_loop(
    length: Duration,
    schedule: Schedule,
    mut op: impl FnMut(u64) -> Verdict,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    let requests = length.as_nanos() as u64 / schedule.interval_ns;
    for i in 0..requests {
        let (due, late) = pace(schedule, start, i);
        let verdict = op(i);
        let now = Instant::now();
        phase.late_us.push(late.as_secs_f64() * 1e6);
        phase.record(now - due, verdict);
    }
    phase.seconds = start.elapsed().as_secs_f64();
    phase
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn late_sender_is_stamped_at_the_due_time() {
        let schedule = Schedule::per_second(1000);
        assert_eq!(schedule.interval_ns, 1_000_000);
        // On time: wait out the remainder.
        assert_eq!(
            schedule.plan(3, 2_400_000),
            Plan {
                wait_ns: 600_000,
                stamp_ns: 3_000_000,
                late_ns: 0
            }
        );
        // The sender was held up for 2.5 intervals: request 3 goes out
        // at once, stamped with its due time, 2.5 ms late...
        assert_eq!(
            schedule.plan(3, 5_500_000),
            Plan {
                wait_ns: 0,
                stamp_ns: 3_000_000,
                late_ns: 2_500_000
            }
        );
        // ...and the schedule is not re-anchored: request 4 is still due
        // at 4 ms and is already late too.
        assert_eq!(schedule.plan(4, 5_600_000).stamp_ns, 4_000_000);
        assert_eq!(schedule.plan(4, 5_600_000).late_ns, 1_600_000);
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_requests_behind_it() {
        // Request 2 stalls for 5 ms on a 1 ms schedule: the requests due
        // during the stall are sent late and their latency, counted from
        // the due time, includes the wait.
        let phase = open_loop(Duration::from_millis(10), Schedule::per_second(1000), |i| {
            if i == 2 {
                std::thread::sleep(Duration::from_millis(5));
            }
            Verdict::Ok
        });
        assert_eq!(phase.attempted, 10);
        assert!(phase.latency_us[3] >= 3_900.0, "{:?}", phase.latency_us);
        assert!(phase.late_us[3] >= 3_900.0, "{:?}", phase.late_us);
        assert!(phase.late_us[0] < 1_000.0);
    }

    #[test]
    fn failures_stay_in_the_latency_population() {
        let verdicts = [Verdict::Ok, Verdict::Shed, Verdict::Wrong, Verdict::Error];
        let phase = closed_loop(Duration::from_millis(20), |i, phase| {
            phase.count(1, verdicts[(i % 4) as usize]);
            Duration::from_micros(10)
        });
        assert_eq!(phase.latency_us.len() as u64, phase.attempted);
        assert!(phase.attempted >= 4);
        assert_eq!(phase.failed(), phase.shed + phase.wrong + phase.errors);
        assert!(phase.shed >= 1 && phase.wrong >= 1 && phase.errors >= 1);
        assert!(phase.failed() < phase.attempted);
    }
}
