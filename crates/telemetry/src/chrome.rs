//! Chrome trace-event JSON writer (the `chrome://tracing` / Perfetto
//! format), built by hand — no serde in the dependency tree.
//!
//! Only the event kinds the exporter needs are implemented: complete
//! ("X") slices, instant ("i") markers, and process/thread name
//! metadata ("M"). Timestamps are microseconds, per the format.
//!
//! The writer streams into one byte buffer: the document header is
//! written at construction and each event is appended in place, so a
//! rendered run costs one growing buffer instead of a heap string per
//! event plus a final copy. Timestamps arrive as integer nanoseconds and
//! are written with integer arithmetic, which yields the same text as
//! `{:.3}` of the microsecond float without float formatting.

use std::io::Write as _;

use amp_types::SimDuration;

const HEADER: &str = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
const FOOTER: &str = "\n]}\n";

/// Below this many nanoseconds (about 52 days) the integer writers agree
/// with float formatting exactly; from it on they take the float path.
/// The microsecond writer needs it: above `1000 * 2^43` ns the double's
/// half-ulp exceeds 0.0005 µs and `{:.3}` can differ in the last digit.
const EXACT_NS: u64 = 1 << 52;

/// An event argument value. Every form is written as a JSON string.
#[derive(Debug, Clone, Copy)]
pub enum Arg<'a> {
    /// Text, escaped.
    Str(&'a str),
    /// An unsigned integer in decimal.
    Uint(u64),
    /// A float with two decimals (`{:.2}`).
    Fixed2(f64),
    /// A duration as its `Display` form: milliseconds with three
    /// decimals and an `ms` suffix.
    Duration(SimDuration),
}

/// A Chrome trace document, written as events are added.
#[derive(Debug)]
pub struct ChromeTrace {
    /// The document so far; UTF-8 because every write is `str` bytes or
    /// ASCII.
    out: Vec<u8>,
}

fn escape_into(out: &mut Vec<u8>, text: &str) {
    let bytes = text.as_bytes();
    // A non-short-circuiting fold: the compiler scans it in vector steps.
    let plain = !bytes.iter().fold(false, |hit, &b| {
        hit | (b == b'"') | (b == b'\\') | (b < 0x20)
    });
    if plain {
        out.extend_from_slice(bytes);
        return;
    }
    // Every byte that needs an escape is ASCII, so a byte walk never
    // splits a multi-byte character.
    for &b in bytes {
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            b if b < 0x20 => {
                let _ = write!(out, "\\u{b:04x}");
            }
            b => out.push(b),
        }
    }
}

/// The two ASCII digits of every number `00..=99`.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

fn digit_pair(n: u64) -> &'static [u8] {
    let at = n as usize * 2;
    &DIGIT_PAIRS[at..at + 2]
}

/// Writes `n` in decimal at the end of `buf`; returns where it starts.
fn digits_into(buf: &mut [u8], mut n: u64) -> usize {
    let mut start = buf.len();
    while n >= 100 {
        start -= 2;
        buf[start..start + 2].copy_from_slice(digit_pair(n % 100));
        n /= 100;
    }
    if n >= 10 {
        start -= 2;
        buf[start..start + 2].copy_from_slice(digit_pair(n));
    } else {
        start -= 1;
        buf[start] = b'0' + n as u8;
    }
    start
}

fn push_uint(out: &mut Vec<u8>, n: u64) {
    let mut buf = [0u8; 20];
    let start = digits_into(&mut buf, n);
    out.extend_from_slice(&buf[start..]);
}

/// Writes `whole` "." `frac` with `frac < 1000` as three digits.
fn push_milli(out: &mut Vec<u8>, whole: u64, frac: u64) {
    let mut buf = [0u8; 24];
    buf[20] = b'.';
    buf[21] = b'0' + (frac / 100) as u8;
    buf[22..].copy_from_slice(digit_pair(frac % 100));
    let start = digits_into(&mut buf[..20], whole);
    out.extend_from_slice(&buf[start..]);
}

/// Writes `ns` as microseconds with three decimals: the text of
/// `{:.3}` of `ns as f64 / 1e3`.
fn push_us(out: &mut Vec<u8>, ns: u64) {
    if ns < EXACT_NS {
        push_milli(out, ns / 1000, ns % 1000);
    } else {
        let _ = write!(out, "{:.3}", ns as f64 / 1e3);
    }
}

/// Writes `d` as [`SimDuration`]'s `Display` does, rounding to whole
/// microseconds in integers. An exact tie (`ns % 1000 == 500`) keeps the
/// float path, whose rounding depends on the nearest double.
fn push_ms(out: &mut Vec<u8>, d: SimDuration) {
    let ns = d.as_nanos();
    let (us, rem) = (ns / 1000, ns % 1000);
    if rem == 500 || ns >= EXACT_NS {
        let _ = write!(out, "{d}");
        return;
    }
    let us = us + u64::from(rem > 500);
    push_milli(out, us / 1000, us % 1000);
    out.extend_from_slice(b"ms");
}

impl ChromeTrace {
    /// An empty trace whose buffer holds `bytes` of events before it
    /// grows.
    pub fn with_capacity(bytes: usize) -> Self {
        let mut out = Vec::with_capacity(HEADER.len() + bytes + FOOTER.len());
        out.extend_from_slice(HEADER.as_bytes());
        ChromeTrace { out }
    }

    /// Starts the next event: separator, then the opening brace.
    fn open(&mut self) -> &mut Vec<u8> {
        if self.out.len() > HEADER.len() {
            self.out.push(b',');
        }
        self.out.extend_from_slice(b"\n{");
        &mut self.out
    }

    /// Writes `,"args":{...}` (nothing when `args` is empty), then
    /// closes the event.
    fn close(&mut self, args: &[(&str, Arg<'_>)]) {
        let out = &mut self.out;
        if !args.is_empty() {
            out.extend_from_slice(b",\"args\":{");
            for (i, (key, value)) in args.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                out.push(b'"');
                escape_into(out, key);
                out.extend_from_slice(b"\":\"");
                match *value {
                    Arg::Str(text) => escape_into(out, text),
                    Arg::Uint(n) => push_uint(out, n),
                    Arg::Fixed2(x) => {
                        let _ = write!(out, "{x:.2}");
                    }
                    Arg::Duration(d) => push_ms(out, d),
                }
                out.push(b'"');
            }
            out.push(b'}');
        }
        out.push(b'}');
    }

    /// Writes the `"name":...,"cat":...,"pid":...,"tid":...,"ts":...`
    /// fields shared by slices and instants.
    fn located(&mut self, name: &str, category: &str, pid: u64, tid: u64, ts_ns: u64) {
        let out = &mut self.out;
        out.extend_from_slice(b"\"name\":\"");
        escape_into(out, name);
        out.extend_from_slice(b"\",\"cat\":\"");
        escape_into(out, category);
        out.extend_from_slice(b"\",\"pid\":");
        push_uint(out, pid);
        out.extend_from_slice(b",\"tid\":");
        push_uint(out, tid);
        out.extend_from_slice(b",\"ts\":");
        push_us(out, ts_ns);
    }

    fn metadata(&mut self, kind: &str, pid: u64, tid: u64, name: &str) {
        let out = self.open();
        out.extend_from_slice(b"\"ph\":\"M\",\"name\":\"");
        out.extend_from_slice(kind.as_bytes());
        out.extend_from_slice(b"\",\"pid\":");
        push_uint(out, pid);
        out.extend_from_slice(b",\"tid\":");
        push_uint(out, tid);
        self.close(&[("name", Arg::Str(name))]);
    }

    /// Names process `pid` (shown as a top-level group in the viewer).
    pub fn process_name(&mut self, pid: u64, name: &str) {
        self.metadata("process_name", pid, 0, name);
    }

    /// Names thread `tid` of process `pid` (a row in the viewer).
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        self.metadata("thread_name", pid, tid, name);
    }

    /// Adds a complete slice: `name` ran on row `(pid, tid)` from
    /// `ts_ns` for `dur_ns` nanoseconds.
    #[allow(clippy::too_many_arguments)] // mirrors the trace-event fields
    pub fn complete(
        &mut self,
        name: &str,
        category: &str,
        pid: u64,
        tid: u64,
        ts_ns: u64,
        dur_ns: u64,
        args: &[(&str, Arg<'_>)],
    ) {
        self.open().extend_from_slice(b"\"ph\":\"X\",");
        self.located(name, category, pid, tid, ts_ns);
        self.out.extend_from_slice(b",\"dur\":");
        push_us(&mut self.out, dur_ns);
        self.close(args);
    }

    /// Adds an instant marker at `ts_ns` on row `(pid, tid)`.
    pub fn instant(
        &mut self,
        name: &str,
        category: &str,
        pid: u64,
        tid: u64,
        ts_ns: u64,
        args: &[(&str, Arg<'_>)],
    ) {
        self.open().extend_from_slice(b"\"ph\":\"i\",\"s\":\"t\",");
        self.located(name, category, pid, tid, ts_ns);
        self.close(args);
    }

    /// Closes the document and returns it.
    pub fn finish(mut self) -> String {
        self.out.extend_from_slice(FOOTER.as_bytes());
        String::from_utf8(self.out).expect("the writer emits UTF-8")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A tiny structural validator: enough JSON parsing to prove the
    /// output is well-formed (balanced, correctly quoted, comma-separated)
    /// without pulling in a parser dependency.
    fn check_json_object(text: &str) {
        let mut depth = 0i32;
        let mut in_string = false;
        let mut escaped = false;
        for ch in text.chars() {
            if in_string {
                if escaped {
                    escaped = false;
                } else if ch == '\\' {
                    escaped = true;
                } else if ch == '"' {
                    in_string = false;
                }
                continue;
            }
            match ch {
                '"' => in_string = true,
                '{' | '[' => depth += 1,
                '}' | ']' => {
                    depth -= 1;
                    assert!(depth >= 0, "unbalanced brackets");
                }
                _ => {}
            }
        }
        assert!(!in_string, "unterminated string");
        assert_eq!(depth, 0, "unbalanced document");
    }

    fn escaped(text: &str) -> String {
        let mut out = Vec::new();
        escape_into(&mut out, text);
        String::from_utf8(out).expect("UTF-8")
    }

    /// Inverse of [`escape_into`] for the escapes it emits.
    fn unescaped(text: &str) -> String {
        let mut out = String::new();
        let mut chars = text.chars();
        while let Some(ch) = chars.next() {
            if ch != '\\' {
                out.push(ch);
                continue;
            }
            match chars.next().expect("escape has a second character") {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).expect("four hex digits");
                    out.push(char::from_u32(code).expect("valid scalar"));
                }
                other => out.push(other),
            }
        }
        out
    }

    fn us_text(ns: u64) -> String {
        let mut out = Vec::new();
        push_us(&mut out, ns);
        String::from_utf8(out).expect("ASCII")
    }

    fn ms_text(ns: u64) -> String {
        let mut out = Vec::new();
        push_ms(&mut out, SimDuration::from_nanos(ns));
        String::from_utf8(out).expect("ASCII")
    }

    #[test]
    fn renders_wellformed_json() {
        let mut trace = ChromeTrace::with_capacity(0);
        trace.process_name(1, "cores");
        trace.thread_name(1, 0, "big0");
        trace.complete(
            "app0/t1",
            "exec",
            1,
            0,
            0,
            1_500_000,
            &[("thread", Arg::Uint(1))],
        );
        trace.instant(
            "migrate \"x\"\n",
            "sched",
            1,
            0,
            750_000,
            &[
                ("dir", Arg::Str("little->big")),
                ("slice", Arg::Duration(SimDuration::from_micros(2500))),
            ],
        );
        let json = trace.finish();
        check_json_object(&json);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ts\":0.000,\"dur\":1500.000,\"args\":{\"thread\":\"1\"}"));
        assert!(json.contains("\\\"x\\\"\\n"));
        assert!(json
            .contains("\"ts\":750.000,\"args\":{\"dir\":\"little->big\",\"slice\":\"2.500ms\"}"));
        assert_eq!(json.matches("\n{").count(), 4);
    }

    #[test]
    fn empty_trace_is_valid() {
        let json = ChromeTrace::with_capacity(0).finish();
        check_json_object(&json);
        assert_eq!(json, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n]}\n");
    }

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(
            escaped("a\"b\\c\nd\te\u{1}é→"),
            "a\\\"b\\\\c\\nd\\te\\u0001é→"
        );
        assert_eq!(escaped("ferret-seg-0"), "ferret-seg-0");
    }

    #[test]
    fn integer_timestamps_match_float_formatting_at_edges() {
        for ns in [
            0,
            999,
            1000,
            1 << 50,
            EXACT_NS - 1,
            EXACT_NS,
            (1 << 53) - 1,
            u64::MAX,
        ] {
            assert_eq!(us_text(ns), format!("{:.3}", ns as f64 / 1e3), "ns = {ns}");
        }
    }

    #[test]
    fn integer_milliseconds_match_display_at_ties() {
        for ns in [
            0,
            499,
            500,
            501,
            2_500,
            1_000_500,
            999_999_500,
            1 << 50,
            u64::MAX,
        ] {
            assert_eq!(
                ms_text(ns),
                SimDuration::from_nanos(ns).to_string(),
                "ns = {ns}"
            );
        }
    }

    proptest! {
        fn escaping_round_trips(
            chars in proptest::collection::vec(
                proptest::sample::select(vec![
                    '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'a', ' ', 'é', '→', '😀',
                ]),
                0..24,
            ),
        ) {
            let text: String = chars.into_iter().collect();
            let out = escaped(&text);
            prop_assert!(!out.bytes().any(|b| b < 0x20), "raw control byte in {out:?}");
            prop_assert!(
                !out.replace("\\\\", "").replace("\\\"", "").contains('"'),
                "unescaped quote in {out:?}"
            );
            prop_assert_eq!(unescaped(&out), text);
        }

        fn integer_timestamps_match_float_formatting(ns in 0u64..EXACT_NS) {
            prop_assert_eq!(us_text(ns), format!("{:.3}", ns as f64 / 1e3));
        }

        fn integer_timestamps_match_below_a_day(ns in 0u64..86_400_000_000_000) {
            prop_assert_eq!(us_text(ns), format!("{:.3}", ns as f64 / 1e3));
        }

        fn integer_milliseconds_match_display(ns in 0u64..EXACT_NS) {
            prop_assert_eq!(ms_text(ns), SimDuration::from_nanos(ns).to_string());
        }

        fn integer_milliseconds_match_display_near_ties(
            us in 0u64..10_000_000_000,
            rem in 495u64..506,
        ) {
            let ns = us * 1000 + rem;
            prop_assert_eq!(ms_text(ns), SimDuration::from_nanos(ns).to_string());
        }
    }
}
