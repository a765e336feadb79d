//! Output checks made from outside the simulator, and the digest of the
//! simulated statistics.

use std::sync::Arc;

use amp_sim::SimulationOutcome;
use amp_types::{SimDuration, SimTime};
use amp_workloads::CompiledApp;

/// FNV-1a, 64-bit: stable across processes and platforms.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The empty digest.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes in `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Mixes in one integer, little-endian.
    pub fn write_u64(&mut self, value: u64) {
        self.write(&value.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Mixes one run's simulated statistics into `fnv`: makespan, per-app
/// turnarounds, events processed, compute events, context switches and
/// migrations.
pub fn run_digest(fnv: &mut Fnv, outcome: &SimulationOutcome) {
    fnv.write_u64(outcome.makespan.as_nanos());
    for app in &outcome.apps {
        fnv.write_u64(app.turnaround.as_nanos());
    }
    fnv.write_u64(outcome.events_processed);
    fnv.write_u64(outcome.compute_events);
    fnv.write_u64(outcome.context_switches);
    fnv.write_u64(outcome.migrations);
}

/// Compute demand of a compiled workload: what its threads must retire.
pub fn demand(apps: &[Arc<CompiledApp>]) -> SimDuration {
    apps.iter()
        .flat_map(|app| &app.threads)
        .map(|thread| thread.program.total_compute())
        .sum()
}

/// Allowed drift of summed work against demand (rounding per leaf).
const WORK_TOLERANCE_NS: u64 = 100_000;
/// Allowed drift of a thread's time decomposition.
const LIFETIME_TOLERANCE_NS: u64 = 1_000;

/// Checks one finished run on a machine with `cores` cores against the
/// workload's compute `demand`:
///
/// * every thread finished;
/// * summed `work_done` matches the demand;
/// * per thread, `run_time + ready_time + blocked_time = finish`;
/// * makespan ≥ max(longest thread's work, total work ÷ cores), since no
///   core retires work faster than a nominal big core;
/// * no runnable thread was routed to an offline core.
pub fn check_run(
    outcome: &SimulationOutcome,
    demand: SimDuration,
    cores: usize,
) -> Result<(), String> {
    let who = &outcome.scheduler;
    if let Some(t) = outcome.threads.iter().find(|t| t.finish == SimTime::ZERO) {
        return Err(format!("{who}: thread {} never finished", t.name));
    }
    let work = outcome.total_work();
    if work.as_nanos().abs_diff(demand.as_nanos()) > WORK_TOLERANCE_NS {
        return Err(format!("{who}: work {work} against demand {demand}"));
    }
    for t in &outcome.threads {
        let accounted = t.run_time + t.ready_time + t.blocked_time;
        if accounted.as_nanos().abs_diff(t.finish.as_nanos()) > LIFETIME_TOLERANCE_NS {
            return Err(format!(
                "{who}: thread {} accounts {accounted} of a {} lifetime",
                t.name, t.finish
            ));
        }
    }
    let longest = outcome
        .threads
        .iter()
        .map(|t| t.work_done)
        .max()
        .unwrap_or_default();
    let spread = SimDuration::from_nanos(work.as_nanos() / cores.max(1) as u64);
    let floor = longest.max(spread);
    if outcome.makespan.as_nanos() < floor.as_nanos() {
        return Err(format!(
            "{who}: makespan {} below the capacity floor {floor}",
            outcome.makespan
        ));
    }
    if outcome.degradation.stranded_enqueues != 0 {
        return Err(format!(
            "{who}: {} enqueues stranded on offline cores",
            outcome.degradation.stranded_enqueues
        ));
    }
    Ok(())
}

/// Whether `text` is one well-formed JSON value (RFC 8259 syntax).
pub fn json_well_formed(text: &str) -> bool {
    let mut parser = Json {
        bytes: text.as_bytes(),
        at: 0,
    };
    parser.value(0) && {
        parser.skip_ws();
        parser.at == parser.bytes.len()
    }
}

/// Nesting beyond this is rejected rather than recursed into.
const MAX_DEPTH: usize = 64;

struct Json<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Json<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        self.skip_ws();
        if self.peek() == Some(byte) {
            self.at += 1;
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> bool {
        self.skip_ws();
        match self.peek() {
            Some(b'{') if depth < MAX_DEPTH => {
                self.at += 1;
                self.sequence(b'}', |p| p.string() && p.eat(b':') && p.value(depth + 1))
            }
            Some(b'[') if depth < MAX_DEPTH => {
                self.at += 1;
                self.sequence(b']', |p| p.value(depth + 1))
            }
            Some(b'"') => self.string(),
            Some(b't') => self.literal(b"true"),
            Some(b'f') => self.literal(b"false"),
            Some(b'n') => self.literal(b"null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => false,
        }
    }

    fn sequence(&mut self, close: u8, mut item: impl FnMut(&mut Self) -> bool) -> bool {
        if self.eat(close) {
            return true;
        }
        loop {
            if !item(self) {
                return false;
            }
            if self.eat(close) {
                return true;
            }
            if !self.eat(b',') {
                return false;
            }
        }
    }

    fn literal(&mut self, word: &[u8]) -> bool {
        if self.bytes[self.at..].starts_with(word) {
            self.at += word.len();
            true
        } else {
            false
        }
    }

    fn string(&mut self) -> bool {
        self.skip_ws();
        if self.peek() != Some(b'"') {
            return false;
        }
        self.at += 1;
        while let Some(byte) = self.peek() {
            self.at += 1;
            match byte {
                b'"' => return true,
                b'\\' => match self.peek() {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => self.at += 1,
                    Some(b'u') => {
                        let hex = self.bytes.get(self.at + 1..self.at + 5);
                        if !hex.is_some_and(|h| h.iter().all(u8::is_ascii_hexdigit)) {
                            return false;
                        }
                        self.at += 5;
                    }
                    _ => return false,
                },
                0x00..=0x1f => return false,
                _ => {}
            }
        }
        false
    }

    fn digits(&mut self) -> usize {
        let from = self.at;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        self.at - from
    }

    fn number(&mut self) -> bool {
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        match self.peek() {
            Some(b'0') => self.at += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return false,
        }
        if self.peek() == Some(b'.') {
            self.at += 1;
            if self.digits() == 0 {
                return false;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            if self.digits() == 0 {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_well_formed_json() {
        for text in [
            r#"{"traceEvents":[{"ph":"X","ts":1.5e3,"args":{"a":"b\"cé"}}]}"#,
            "[]",
            " {} ",
            "-0.25",
            r#"[true,false,null,"x"]"#,
        ] {
            assert!(json_well_formed(text), "{text}");
        }
    }

    #[test]
    fn rejects_malformed_json() {
        for text in [
            "",
            "{",
            r#"{"a":1,}"#,
            "[1 2]",
            r#"{"a"}"#,
            "01",
            "1.",
            r#""\x""#,
            "[] []",
            "\"tab\there\"",
        ] {
            assert!(!json_well_formed(text), "{text}");
        }
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(Fnv::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut fnv = Fnv::new();
        fnv.write(b"a");
        assert_eq!(fnv.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
