//! Property tests for the futex accounting invariants.
//!
//! Conservation law: every nanosecond a thread spends in a *completed* wait
//! (every wait ends in a wake) is charged to exactly one waker, so
//! `Σ caused_wait == Σ waited` at all times.

use amp_futex::{FutexKey, FutexTable};
use amp_types::{SimDuration, SimTime, ThreadId};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Wait { thread: u8, key: u8 },
    Wake { waker: u8, key: u8, n: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u8..8, 0u8..4).prop_map(|(thread, key)| Op::Wait { thread, key }),
        3 => (0u8..8, 0u8..4, 1u8..4).prop_map(|(waker, key, n)| Op::Wake { waker, key, n }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn caused_wait_conserves_woken_wait_time(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let mut table = FutexTable::new(8);
        let mut now = SimTime::ZERO;
        let mut woken = Vec::new();

        for op in ops {
            now += SimDuration::from_micros(100);
            match op {
                Op::Wait { thread, key } => {
                    let tid = ThreadId::new(thread as u32);
                    if table.waiting_on(tid).is_none() {
                        table.wait(FutexKey::new(key as u32), tid, now);
                    }
                }
                Op::Wake { waker, key, n } => {
                    woken.clear();
                    table.wake(
                        FutexKey::new(key as u32),
                        n as usize,
                        ThreadId::new(waker as u32),
                        now,
                        &mut woken,
                    );
                    prop_assert!(woken.len() <= n as usize);
                    for &t in &woken {
                        prop_assert_eq!(table.waiting_on(t), None);
                    }
                }
            }

            let total_caused: SimDuration =
                (0..8).map(|i| table.caused_wait(ThreadId::new(i))).sum();
            let total_waited: SimDuration =
                (0..8).map(|i| table.waited(ThreadId::new(i))).sum();
            prop_assert_eq!(total_caused, total_waited);
        }
    }

    #[test]
    fn a_thread_waits_on_at_most_one_futex(
        waits in proptest::collection::vec((0u8..8, 0u8..4), 1..50)
    ) {
        let mut table = FutexTable::new(8);
        let now = SimTime::ZERO;
        for (thread, key) in waits {
            let tid = ThreadId::new(thread as u32);
            if table.waiting_on(tid).is_none() {
                table.wait(FutexKey::new(key as u32), tid, now);
            }
            // The queues hold each waiting thread exactly once.
            let waiting = (0..8)
                .filter(|&i| table.waiting_on(ThreadId::new(i)).is_some())
                .count();
            let queued: usize = (0..4).map(|k| table.queue_len(FutexKey::new(k))).sum();
            prop_assert_eq!(queued, waiting);
        }
    }
}
