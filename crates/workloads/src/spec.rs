//! Workload, application, and thread specifications.

use amp_perf::ExecutionProfile;
use amp_types::{Error, Result};

use crate::benchmarks::BenchmarkId;
use crate::program::{Op, Program};

/// Scales a workload's loop counts, shrinking or growing the amount of work
/// without changing the parallel structure. Tests use small scales; the
/// figure harness uses `Scale::default()` (1.0).
///
/// # Examples
///
/// ```
/// use amp_workloads::Scale;
/// assert_eq!(Scale::new(0.25).apply(100), 25);
/// assert_eq!(Scale::new(0.001).apply(100), 1, "never scales to zero");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale(f64);

impl Scale {
    /// Creates a scale factor.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub fn new(factor: f64) -> Scale {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be finite and positive, got {factor}"
        );
        Scale(factor)
    }

    /// A small scale for fast unit/integration tests.
    pub fn quick() -> Scale {
        Scale(0.12)
    }

    /// Applies the scale to an iteration count, never rounding below 1.
    pub fn apply(self, count: u32) -> u32 {
        ((count as f64 * self.0).round() as u32).max(1)
    }

    /// The raw factor.
    pub fn factor(self) -> f64 {
        self.0
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale(1.0)
    }
}

/// One thread of an application: its latent execution characteristics and
/// its behaviour program.
#[derive(Debug, Clone)]
pub struct ThreadSpec {
    /// Human-readable role, e.g. `"rank-worker-2"`.
    pub name: String,
    /// Latent characteristics driving speed and PMU counters.
    pub profile: ExecutionProfile,
    /// The behaviour to execute.
    pub program: Program,
}

/// One application (program) of a multiprogrammed workload: its threads and
/// the synchronization objects they share. Lock/barrier/channel ids inside
/// thread programs are app-local indices into the declarations here.
#[derive(Debug, Clone)]
pub struct AppSpec {
    /// Application name, e.g. `"dedup"`.
    pub name: String,
    /// Which benchmark this instantiates.
    pub benchmark: BenchmarkId,
    /// The threads, index order = app-local thread index.
    pub threads: Vec<ThreadSpec>,
    /// Number of app-local locks.
    pub num_locks: u32,
    /// Parties per app-local barrier.
    pub barrier_parties: Vec<u32>,
    /// Capacity per app-local channel.
    pub channel_capacities: Vec<u32>,
}

impl AppSpec {
    /// Total big-core compute across all threads (the app's serial work).
    pub fn total_compute(&self) -> amp_types::SimDuration {
        self.threads.iter().map(|t| t.program.total_compute()).sum()
    }

    /// Validates the structural sanity of the app:
    ///
    /// * every referenced lock/barrier/channel id is declared;
    /// * every program obeys lock discipline;
    /// * per channel, total pushes equal total pops (no deadlock by
    ///   starvation);
    /// * per barrier, the number of distinct participating threads equals
    ///   the declared parties and all participants arrive equally often.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] describing the first violation.
    pub fn validate(&self) -> Result<()> {
        let fail = |msg: String| Err(Error::InvalidConfig(format!("app {}: {msg}", self.name)));

        let mut channel_balance = vec![0i64; self.channel_capacities.len()];
        let mut barrier_arrivals: Vec<Vec<u64>> = self
            .barrier_parties
            .iter()
            .map(|_| vec![0u64; self.threads.len()])
            .collect();

        for (ti, thread) in self.threads.iter().enumerate() {
            if let Err(msg) = thread.program.check_lock_discipline() {
                return fail(format!("thread {}: {msg}", thread.name));
            }
            let mut violations: Vec<String> = Vec::new();
            walk_ops(thread.program.ops(), 1, &mut |op, mult| match op {
                Op::Lock(l) | Op::Unlock(l) => {
                    if l.index() >= self.num_locks as usize {
                        violations.push(format!("undeclared lock {l}"));
                    }
                }
                Op::Barrier(b) => {
                    if let Some(arrivals) = barrier_arrivals.get_mut(b.index()) {
                        arrivals[ti] += mult;
                    } else {
                        violations.push(format!("undeclared barrier {b}"));
                    }
                }
                Op::Push(c) => {
                    if let Some(balance) = channel_balance.get_mut(c.index()) {
                        *balance += mult as i64;
                    } else {
                        violations.push(format!("undeclared channel {c}"));
                    }
                }
                Op::Pop(c) => {
                    if let Some(balance) = channel_balance.get_mut(c.index()) {
                        *balance -= mult as i64;
                    } else {
                        violations.push(format!("undeclared channel {c}"));
                    }
                }
                Op::Compute(_) | Op::SetProfile(_) | Op::Loop { .. } => {}
            });
            if let Some(v) = violations.first() {
                return fail(format!("thread {}: {v}", thread.name));
            }
        }

        for (ci, balance) in channel_balance.iter().enumerate() {
            if *balance != 0 {
                return fail(format!(
                    "channel Q{ci} push/pop imbalance of {balance} items"
                ));
            }
        }
        for (bi, arrivals) in barrier_arrivals.iter().enumerate() {
            let participants: Vec<u64> = arrivals.iter().copied().filter(|&n| n > 0).collect();
            if participants.is_empty() {
                continue; // declared but unused is harmless
            }
            if participants.len() != self.barrier_parties[bi] as usize {
                return fail(format!(
                    "barrier B{bi} declared for {} parties but used by {} threads",
                    self.barrier_parties[bi],
                    participants.len()
                ));
            }
            if participants.windows(2).any(|w| w[0] != w[1]) {
                return fail(format!(
                    "barrier B{bi} participants arrive unequally: {participants:?}"
                ));
            }
        }
        Ok(())
    }
}

/// Recursively visits ops with their loop multiplicity.
fn walk_ops(ops: &[Op], mult: u64, visit: &mut impl FnMut(&Op, u64)) {
    for op in ops {
        visit(op, mult);
        if let Op::Loop { count, body } = op {
            walk_ops(body, mult * u64::from(*count), visit);
        }
    }
}

/// A multiprogrammed workload: a named list of `(benchmark, thread count)`
/// entries, instantiated on demand into concrete [`AppSpec`]s.
///
/// # Examples
///
/// ```
/// use amp_workloads::{BenchmarkId, WorkloadSpec, Scale};
///
/// let spec = WorkloadSpec::single(BenchmarkId::Ferret, 6);
/// let apps = spec.instantiate(42, Scale::quick());
/// assert_eq!(apps.len(), 1);
/// apps[0].validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WorkloadSpec {
    name: String,
    entries: Vec<(BenchmarkId, usize)>,
}

impl WorkloadSpec {
    /// A single-program workload (the Figure 4 scenario).
    pub fn single(benchmark: BenchmarkId, threads: usize) -> WorkloadSpec {
        WorkloadSpec {
            name: benchmark.name().to_string(),
            entries: vec![(benchmark, threads)],
        }
    }

    /// A named multiprogrammed workload.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty or any thread count is zero.
    pub fn named(name: impl Into<String>, entries: Vec<(BenchmarkId, usize)>) -> WorkloadSpec {
        assert!(!entries.is_empty(), "a workload needs at least one app");
        assert!(
            entries.iter().all(|&(_, n)| n > 0),
            "every app needs at least one thread"
        );
        WorkloadSpec {
            name: name.into(),
            entries,
        }
    }

    /// The workload's name (e.g. `"Sync-2"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The `(benchmark, thread count)` entries.
    pub fn entries(&self) -> &[(BenchmarkId, usize)] {
        &self.entries
    }

    /// Number of applications.
    pub fn num_apps(&self) -> usize {
        self.entries.len()
    }

    /// Total threads across all applications.
    pub fn total_threads(&self) -> usize {
        self.entries.iter().map(|&(_, n)| n).sum()
    }

    /// Materializes the workload into concrete app specs. Deterministic in
    /// `(seed, scale)`: per-app seeds are derived from the workload seed
    /// and the app's position.
    pub fn instantiate(&self, seed: u64, scale: Scale) -> Vec<AppSpec> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, &(bench, threads))| {
                let app_seed = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(i as u64);
                bench.build(threads, app_seed, scale)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amp_types::{BarrierId, ChannelId, LockId, SimDuration};

    fn compute(us: u64) -> Op {
        Op::Compute(SimDuration::from_micros(us))
    }

    fn one_thread_app(ops: Vec<Op>, locks: u32, barriers: Vec<u32>, chans: Vec<u32>) -> AppSpec {
        AppSpec {
            name: "test".into(),
            benchmark: BenchmarkId::Blackscholes,
            threads: vec![ThreadSpec {
                name: "t0".into(),
                profile: ExecutionProfile::balanced(),
                program: Program::new(ops),
            }],
            num_locks: locks,
            barrier_parties: barriers,
            channel_capacities: chans,
        }
    }

    #[test]
    fn scale_clamps_and_rounds() {
        assert_eq!(Scale::default().apply(7), 7);
        assert_eq!(Scale::new(0.5).apply(7), 4);
        assert_eq!(Scale::new(10.0).apply(3), 30);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn zero_scale_rejected() {
        let _ = Scale::new(0.0);
    }

    #[test]
    fn validate_accepts_minimal_app() {
        let app = one_thread_app(vec![compute(10)], 0, vec![], vec![]);
        app.validate().unwrap();
    }

    #[test]
    fn validate_rejects_undeclared_lock() {
        let app = one_thread_app(
            vec![Op::Lock(LockId::new(0)), Op::Unlock(LockId::new(0))],
            0,
            vec![],
            vec![],
        );
        assert!(app.validate().is_err());
    }

    #[test]
    fn validate_rejects_channel_imbalance() {
        let app = one_thread_app(vec![Op::Push(ChannelId::new(0))], 0, vec![], vec![4]);
        let err = app.validate().unwrap_err();
        assert!(err.to_string().contains("imbalance"));
    }

    #[test]
    fn validate_rejects_barrier_party_mismatch() {
        // One thread arrives at a two-party barrier: would deadlock.
        let app = one_thread_app(vec![Op::Barrier(BarrierId::new(0))], 0, vec![2], vec![]);
        assert!(app.validate().is_err());
    }

    #[test]
    fn validate_rejects_unequal_barrier_arrivals() {
        let mk_thread = |name: &str, arrivals: u32| ThreadSpec {
            name: name.into(),
            profile: ExecutionProfile::balanced(),
            program: Program::new(vec![Op::Loop {
                count: arrivals,
                body: vec![Op::Barrier(BarrierId::new(0))],
            }]),
        };
        let app = AppSpec {
            name: "lopsided".into(),
            benchmark: BenchmarkId::Fft,
            threads: vec![mk_thread("a", 3), mk_thread("b", 2)],
            num_locks: 0,
            barrier_parties: vec![2],
            channel_capacities: vec![],
        };
        assert!(app.validate().is_err());
    }

    #[test]
    fn workload_spec_accessors() {
        let w = WorkloadSpec::named(
            "mix",
            vec![(BenchmarkId::LuCb, 9), (BenchmarkId::Dedup, 10)],
        );
        assert_eq!(w.name(), "mix");
        assert_eq!(w.num_apps(), 2);
        assert_eq!(w.total_threads(), 19);
    }

    #[test]
    fn instantiate_is_deterministic() {
        let w = WorkloadSpec::single(BenchmarkId::Fluidanimate, 4);
        let a = w.instantiate(9, Scale::quick());
        let b = w.instantiate(9, Scale::quick());
        assert_eq!(a[0].threads.len(), b[0].threads.len());
        for (ta, tb) in a[0].threads.iter().zip(&b[0].threads) {
            assert_eq!(ta.profile, tb.profile);
            assert_eq!(ta.program, tb.program);
        }
    }

    #[test]
    #[should_panic(expected = "at least one app")]
    fn empty_workload_rejected() {
        let _ = WorkloadSpec::named("empty", vec![]);
    }
}
