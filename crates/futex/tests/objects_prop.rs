//! Model-checked property tests for the high-level synchronization
//! objects: mutual exclusion, FIFO handoff, barrier generations, and
//! channel occupancy bounds hold under arbitrary operation interleavings.

use amp_futex::{OpResult, SyncObjects};
use amp_types::{SimDuration, SimTime, ThreadId};
use proptest::prelude::*;

const THREADS: u32 = 6;

#[derive(Debug, Clone, Copy)]
enum Op {
    Lock(u8),
    Unlock(u8),
    Push(u8),
    Pop(u8),
}

fn op_strategy() -> impl Strategy<Value = (u8, Op)> {
    let op = prop_oneof![
        (0u8..2).prop_map(Op::Lock),
        (0u8..2).prop_map(Op::Unlock),
        (0u8..2).prop_map(Op::Push),
        (0u8..2).prop_map(Op::Pop),
    ];
    (0u8..THREADS as u8, op)
}

/// What each simulated thread is currently doing, in the model.
#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Free,
    HoldsLock(u8),
    BlockedOnLock(u8),
    BlockedOnPush(u8),
    BlockedOnPop(u8),
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Drives random (well-formed) lock and channel traffic and checks
    /// the safety invariants after every operation.
    #[test]
    fn sync_objects_safety(ops in proptest::collection::vec(op_strategy(), 1..250)) {
        let mut sync = SyncObjects::new(THREADS as usize);
        let locks = [sync.add_lock(), sync.add_lock()];
        let chans = [sync.add_channel(2), sync.add_channel(0)];
        let mut state = [State::Free; THREADS as usize];
        let mut occupancy_model = [0i32; 2];
        let mut now = SimTime::ZERO;
        let mut woken = Vec::new();

        // Applies the side effects of a wake list to the model.
        fn apply_wakes(
            state: &mut [State; THREADS as usize],
            woken: &[ThreadId],
            lock_handoff: Option<u8>,
        ) {
            for w in woken {
                match state[w.index()] {
                    State::BlockedOnLock(l) => {
                        assert_eq!(Some(l), lock_handoff, "lock wake must hand off");
                        state[w.index()] = State::HoldsLock(l);
                    }
                    State::BlockedOnPush(c) => {
                        // Deferred push lands (buffered channel) or pairs
                        // with the pop (rendezvous): net occupancy change
                        // is handled by the caller's bookkeeping.
                        let _ = c;
                        state[w.index()] = State::Free;
                    }
                    State::BlockedOnPop(_) => {
                        state[w.index()] = State::Free;
                    }
                    other => panic!("woke a non-blocked thread in state {other:?}"),
                }
            }
        }

        for (who, op) in ops {
            now += SimDuration::from_micros(10);
            let tid = ThreadId::new(u32::from(who));
            woken.clear();
            if state[tid.index()] != State::Free
                && !matches!((state[tid.index()], op), (State::HoldsLock(h), Op::Unlock(l)) if h == l)
            {
                continue; // blocked or ill-formed for this thread; skip
            }
            match op {
                Op::Lock(l) => {
                    if matches!(state[tid.index()], State::HoldsLock(_)) {
                        continue; // no nesting in this model
                    }
                    match sync.lock(locks[l as usize], tid, now) {
                        OpResult::Proceed => {
                            // Mutual exclusion: nobody else holds it.
                            prop_assert!(!state.contains(&State::HoldsLock(l)));
                            state[tid.index()] = State::HoldsLock(l);
                        }
                        OpResult::Block => {
                            state[tid.index()] = State::BlockedOnLock(l);
                        }
                    }
                }
                Op::Unlock(l) => {
                    if state[tid.index()] != State::HoldsLock(l) {
                        continue;
                    }
                    sync.unlock(locks[l as usize], tid, now, &mut woken);
                    prop_assert!(woken.len() <= 1, "lock hand-off is single");
                    state[tid.index()] = State::Free;
                    apply_wakes(&mut state, &woken, Some(l));
                }
                Op::Push(c) => {
                    match sync.push(chans[c as usize], tid, now, &mut woken) {
                        OpResult::Proceed => {
                            if woken.is_empty() {
                                occupancy_model[c as usize] += 1;
                            }
                            // else: direct handoff to a parked consumer.
                            apply_wakes(&mut state, &woken, None);
                        }
                        OpResult::Block => {
                            prop_assert!(woken.is_empty(), "a blocked push woke a thread");
                            state[tid.index()] = State::BlockedOnPush(c);
                        }
                    }
                }
                Op::Pop(c) => {
                    match sync.pop(chans[c as usize], tid, now, &mut woken) {
                        OpResult::Proceed => {
                            if woken.is_empty() {
                                occupancy_model[c as usize] -= 1;
                            }
                            // else: a parked producer's item replaced ours
                            // (buffered) or paired with us (rendezvous).
                            apply_wakes(&mut state, &woken, None);
                        }
                        OpResult::Block => {
                            prop_assert!(woken.is_empty(), "a blocked pop woke a thread");
                            state[tid.index()] = State::BlockedOnPop(c);
                        }
                    }
                }
            }

            // Invariants after every step.
            for (ci, &cap) in [2u32, 0].iter().enumerate() {
                let occupied = sync.channel_occupied(chans[ci]);
                prop_assert!(occupied <= cap, "channel {ci} over capacity");
                prop_assert_eq!(
                    i64::from(occupied),
                    i64::from(occupancy_model[ci].max(0)),
                    "channel {} occupancy model diverged", ci
                );
            }
            for (li, &lock) in locks.iter().enumerate() {
                let holders = state
                    .iter()
                    .filter(|s| **s == State::HoldsLock(li as u8))
                    .count();
                prop_assert!(holders <= 1, "mutual exclusion violated");
                prop_assert_eq!(
                    sync.lock_owner(lock).is_some(),
                    holders == 1,
                    "owner bookkeeping diverged"
                );
            }
        }
    }
}
