//! Compile-time `Send` assertions for every scheduling policy.
//!
//! The sweep executor constructs one scheduler per worker job, so every
//! policy must be `Send` (and `Scheduler` carries `Send` as a
//! supertrait). If a future change introduces `Rc`/`RefCell` state into
//! a policy, these assertions fail at `cargo test` compile time —
//! long before the executor would misbehave at runtime.

use amp_sched::{CfsScheduler, ColabScheduler, Scheduler};

fn assert_send<T: Send>() {}

#[test]
fn all_five_policies_are_send() {
    // Linux, WASH, GTS and equal-progress are all `CfsScheduler`.
    assert_send::<CfsScheduler>();
    assert_send::<ColabScheduler>();
}

#[test]
fn scheduler_trait_objects_are_send() {
    // `Send` is a supertrait of `Scheduler`, so even a bare trait
    // object — what `SchedulerKind::create` hands to the executor —
    // crosses threads.
    assert_send::<Box<dyn Scheduler>>();
}
