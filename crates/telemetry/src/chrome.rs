//! Chrome trace-event JSON writer (the `chrome://tracing` / Perfetto
//! format), built by hand — no serde in the dependency tree.
//!
//! Only the event kinds the exporter needs are implemented: complete
//! ("X") slices, instant ("i") markers, and process/thread name
//! metadata ("M"). Timestamps are microseconds, per the format.
//!
//! The writer renders one run from per-run templates into one `String`.
//! Text that repeats is escaped once: the run's thread names when the
//! writer is made, and each event kind's name, category, argument keys
//! and fixed argument values when its [`Template`] is built. An event is
//! then its template's constant fragments with the values between them:
//! integers, timestamps and two-decimal floats formatted with integer
//! arithmetic, and labels from fixed sets ([`Arg::Label`]) copied as they
//! are. Every fragment is a `str` and every digit a slice of a `str`
//! table, so the document is never re-validated as UTF-8 — without
//! `unsafe`.
//!
//! Names and template fragments live back to back in two pre-sized
//! arenas, and the document is allocated at its first event, after them.
//! A run's rendering thus adds a handful of allocations, all made before
//! the large one: small allocations made after the document can split the
//! heap around it and raise a rendering process's peak memory.

use std::fmt::Write as _;

use amp_types::SimDuration;

const HEADER: &str = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
const FOOTER: &str = "\n]}\n";

/// Below this many nanoseconds (about 52 days) the integer writers agree
/// with float formatting exactly; from it on they take the float path.
/// The microsecond writer needs it: above `1000 * 2^43` ns the double's
/// half-ulp exceeds 0.0005 µs and `{:.3}` can differ in the last digit.
const EXACT_NS: u64 = 1 << 52;

/// Below this value [`Arg::Fixed2`] is written with integer arithmetic.
/// `100 x` is then below `2^27`, so the product's rounding error is under
/// `1e-8`, and a value more than [`TIE_SLACK`] hundredths away from a
/// `.xx5` tie rounds the same way as `{:.2}` rounds the exact value.
const FIXED2_BOUND: f64 = 1e6;

/// How close, in hundredths, a value may come to a rounding tie before
/// [`Arg::Fixed2`] leaves it to float formatting.
const TIE_SLACK: f64 = 1e-6;

/// An event argument value. Every form is written as a JSON string.
#[derive(Debug, Clone, Copy)]
pub enum Arg {
    /// Entry `i` of the run's thread-name table, escaped when the writer
    /// was made. A thread past the table's end is written `t<i>`.
    Thread(usize),
    /// A label from a fixed set, written as is: it must hold nothing JSON
    /// escapes (see [`needs_escape`]).
    Label(&'static str),
    /// An unsigned integer in decimal.
    Uint(u64),
    /// A float with two decimals (`{:.2}`).
    Fixed2(f64),
    /// A duration as its `Display` form: milliseconds with three
    /// decimals and an `ms` suffix.
    Duration(SimDuration),
}

/// What a [`Template`] describes, with the events' name.
#[derive(Debug, Clone, Copy)]
pub enum Kind<'a> {
    /// Complete ("X") slices, named by this value.
    Complete(Arg),
    /// Instant ("i") markers with this name.
    Instant(&'a str),
}

/// The constant text of one kind of event, escaped and assembled once
/// per run by [`ChromeTrace::template`]: writing an event copies these
/// fragments and formats only the values between them.
#[derive(Debug, Clone, Copy)]
pub struct Template {
    /// Whether this is a slice's template ([`Kind::Complete`]).
    slice: bool,
    /// The trace's fragment holding the text from the event's separator
    /// up to the `tid` value. The next `keys` fragments hold the text
    /// before each value given per event (argument keys, with any fixed
    /// arguments before them); the one after them, the text after the
    /// last value.
    head: usize,
    /// How many values each event gives.
    keys: usize,
}

/// Escaped text kept for the whole run: pieces back to back in one
/// `String`, so a run's names and templates take two allocations, not
/// one per piece.
#[derive(Debug, Default)]
struct Fragments {
    text: String,
    /// Where each piece starts and ends in `text`.
    spans: Vec<(usize, usize)>,
}

impl Fragments {
    /// Ends the piece begun at byte `start` of `text`.
    fn close(&mut self, start: usize) {
        self.spans.push((start, self.text.len()));
    }

    fn get(&self, i: usize) -> Option<&str> {
        self.spans
            .get(i)
            .map(|&(start, end)| &self.text[start..end])
    }
}

/// A Chrome trace document of one run, written as events are added.
#[derive(Debug)]
pub struct ChromeTrace {
    /// The document so far; empty until the first event, when it is
    /// allocated with room for `bytes`.
    out: String,
    /// The document's expected size.
    bytes: usize,
    /// The run's thread names, escaped, in [`Arg::Thread`] order.
    threads: Fragments,
    /// The templates' fragments.
    parts: Fragments,
}

/// Whether `text` holds a byte that a JSON string must escape: a quote,
/// a backslash or a control character.
pub fn needs_escape(text: &str) -> bool {
    // A non-short-circuiting fold: the compiler scans it in vector steps.
    text.as_bytes().iter().fold(false, |hit, &b| {
        hit | (b == b'"') | (b == b'\\') | (b < 0x20)
    })
}

fn escape_into(out: &mut String, text: &str) {
    if !needs_escape(text) {
        out.push_str(text);
        return;
    }
    // Every byte that needs an escape is ASCII, so the plain runs between
    // them end on character boundaries.
    let mut plain = 0;
    for (i, b) in text.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&text[plain..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        plain = i + 1;
    }
    out.push_str(&text[plain..]);
}

/// Entry `i` of [`DECIMALS`]: `.` then `i` as three digits.
const fn decimal_bytes() -> [u8; 4000] {
    let mut table = [0; 4000];
    let mut i = 0;
    while i < 1000 {
        table[4 * i] = b'.';
        table[4 * i + 1] = b'0' + (i / 100) as u8;
        table[4 * i + 2] = b'0' + (i / 10 % 10) as u8;
        table[4 * i + 3] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
}

const DECIMAL_BYTES: [u8; 4000] = decimal_bytes();

/// `.000.001.002` … `.999`: every digit the writer emits is a slice of
/// this `str`, so numbers need no UTF-8 check.
const DECIMALS: &str = match std::str::from_utf8(&DECIMAL_BYTES) {
    Ok(text) => text,
    Err(_) => panic!("the decimal table is ASCII"),
};

/// Bytes `from..4` of `.ddd`, the entry of `n < 1000`.
fn decimal(n: u64, from: usize) -> &'static str {
    let at = 4 * n as usize;
    &DECIMALS[at + from..at + 4]
}

/// The digits of `n < 1000` without leading zeros.
fn lead(n: u64) -> &'static str {
    decimal(n, 1 + usize::from(n < 100) + usize::from(n < 10))
}

/// Writes `n` in decimal, three digits per append. Inlined for the
/// common short numbers; longer ones take [`push_wide`].
#[inline]
fn push_uint(out: &mut String, n: u64) {
    if n < 1000 {
        out.push_str(lead(n));
    } else if n < 1_000_000 {
        out.push_str(lead(n / 1000));
        out.push_str(decimal(n % 1000, 1));
    } else if n < 1_000_000_000 {
        out.push_str(lead(n / 1_000_000));
        out.push_str(decimal(n / 1000 % 1000, 1));
        out.push_str(decimal(n % 1000, 1));
    } else {
        push_wide(out, n);
    }
}

/// Writes `n` in decimal, three digits per append, at any width.
#[inline(never)]
fn push_wide(out: &mut String, n: u64) {
    if n >= 1000 {
        push_wide(out, n / 1000);
        out.push_str(decimal(n % 1000, 1));
    } else {
        out.push_str(lead(n));
    }
}

/// Writes `whole` "." `frac`, with `frac` zero-padded to `places` (2 or
/// 3) digits.
fn push_point(out: &mut String, whole: u64, frac: u64, places: usize) {
    push_uint(out, whole);
    let text = if places == 3 {
        decimal(frac, 0)
    } else {
        // `.dd0` without its last digit.
        &decimal(frac * 10, 0)[..3]
    };
    out.push_str(text);
}

/// Writes `ns` as microseconds with three decimals: the text of
/// `{:.3}` of `ns as f64 / 1e3`.
fn push_us(out: &mut String, ns: u64) {
    if ns < EXACT_NS {
        push_point(out, ns / 1000, ns % 1000, 3);
    } else {
        let _ = write!(out, "{:.3}", ns as f64 / 1e3);
    }
}

/// Writes `d` as [`SimDuration`]'s `Display` does, rounding to whole
/// microseconds in integers. An exact tie (`ns % 1000 == 500`) keeps the
/// float path, whose rounding depends on the nearest double.
fn push_ms(out: &mut String, d: SimDuration) {
    let ns = d.as_nanos();
    let (us, rem) = (ns / 1000, ns % 1000);
    if rem == 500 || ns >= EXACT_NS {
        let _ = write!(out, "{d}");
        return;
    }
    let us = us + u64::from(rem > 500);
    push_point(out, us / 1000, us % 1000, 3);
    out.push_str("ms");
}

/// Writes the text of `{x:.2}`, in integers when `x` is in
/// `[0, FIXED2_BOUND)` and not within [`TIE_SLACK`] of a rounding tie.
/// Negative values (including `-0.0`), NaN, infinities and large values
/// take the float path.
fn push_fixed2(out: &mut String, x: f64) {
    let hundredths = x * 100.0;
    let below = hundredths.floor();
    let above_half = hundredths - below - 0.5;
    // NaN fails `x < FIXED2_BOUND` too.
    let exact = x.is_sign_positive() && x < FIXED2_BOUND && above_half.abs() >= TIE_SLACK;
    if !exact {
        let _ = write!(out, "{x:.2}");
        return;
    }
    let n = below as u64 + u64::from(above_half > 0.0);
    push_point(out, n / 100, n % 100, 2);
}

/// Starts the next event of document `out` with `text`, which opens with
/// the separator. The first event allocates the document with room for
/// `bytes`, writes the header and skips the separator.
fn open(out: &mut String, bytes: usize, text: &str) {
    if out.is_empty() {
        out.reserve_exact(bytes);
        out.push_str(HEADER);
        out.push_str(&text[1..]);
    } else {
        out.push_str(text);
    }
}

/// Writes `arg`; `threads` holds the run's escaped thread names.
fn push_arg(out: &mut String, threads: &Fragments, arg: Arg) {
    match arg {
        Arg::Thread(i) => match threads.get(i) {
            Some(name) => out.push_str(name),
            None => {
                out.push('t');
                push_uint(out, i as u64);
            }
        },
        Arg::Label(text) => {
            debug_assert!(!needs_escape(text), "label {text:?} needs escaping");
            out.push_str(text);
        }
        Arg::Uint(n) => push_uint(out, n),
        Arg::Fixed2(x) => push_fixed2(out, x),
        Arg::Duration(d) => push_ms(out, d),
    }
}

impl ChromeTrace {
    /// An empty trace of a run whose threads are named `threads` (in
    /// [`Arg::Thread`] index order); its buffer holds `bytes` of events
    /// before it grows.
    pub fn new<'a>(threads: impl IntoIterator<Item = &'a str>, bytes: usize) -> Self {
        let mut names = Fragments::default();
        for name in threads {
            let start = names.text.len();
            escape_into(&mut names.text, name);
            names.close(start);
        }
        // Room, without growing, for a template per thread (about 100
        // bytes and three fragments besides its name) and a few dozen
        // other fragments.
        let n = names.spans.len();
        let parts = Fragments {
            text: String::with_capacity(2048 + 2 * names.text.len() + 112 * n),
            spans: Vec::with_capacity(48 + 3 * n),
        };
        ChromeTrace {
            out: String::new(),
            bytes: HEADER.len() + bytes + FOOTER.len(),
            threads: names,
            parts,
        }
    }

    /// The template of events of `kind` in `category` on process `pid`.
    /// Their arguments are `args` in order: a key with `Some` value has
    /// that value in every event and is written into the template; a key
    /// with `None` takes the next of the values given per event.
    pub fn template(
        &mut self,
        kind: Kind<'_>,
        category: &str,
        pid: u64,
        args: &[(&str, Option<Arg>)],
    ) -> Template {
        let parts = &mut self.parts;
        let head = parts.spans.len();
        let mut start = parts.text.len();
        let text = &mut parts.text;
        let slice = match kind {
            Kind::Complete(name) => {
                text.push_str(",\n{\"ph\":\"X\",\"name\":\"");
                push_arg(text, &self.threads, name);
                true
            }
            Kind::Instant(name) => {
                text.push_str(",\n{\"ph\":\"i\",\"s\":\"t\",\"name\":\"");
                escape_into(text, name);
                false
            }
        };
        text.push_str("\",\"cat\":\"");
        escape_into(text, category);
        text.push_str("\",\"pid\":");
        push_uint(text, pid);
        text.push_str(",\"tid\":");
        parts.close(start);
        start = parts.text.len();
        let mut keys = 0;
        for (i, &(key, value)) in args.iter().enumerate() {
            let text = &mut parts.text;
            text.push_str(if i == 0 { ",\"args\":{\"" } else { "\",\"" });
            escape_into(text, key);
            text.push_str("\":\"");
            match value {
                Some(arg) => push_arg(text, &self.threads, arg),
                None => {
                    parts.close(start);
                    start = parts.text.len();
                    keys += 1;
                }
            }
        }
        parts
            .text
            .push_str(if args.is_empty() { "}" } else { "\"}}" });
        parts.close(start);
        Template { slice, head, keys }
    }

    /// Writes `tid`, then `,"ts":` and `ts_ns` in microseconds.
    fn at(&mut self, tid: u64, ts_ns: u64) {
        let out = &mut self.out;
        push_uint(out, tid);
        out.push_str(",\"ts\":");
        push_us(out, ts_ns);
    }

    /// Writes the values given per event after `kind`'s keys, then
    /// closes the event.
    fn args(&mut self, kind: &Template, args: &[Arg]) {
        debug_assert_eq!(args.len(), kind.keys, "one value per key");
        for (i, &arg) in args.iter().enumerate() {
            let key = self.parts.get(kind.head + 1 + i).expect("a template's key");
            self.out.push_str(key);
            push_arg(&mut self.out, &self.threads, arg);
        }
        let tail = self
            .parts
            .get(kind.head + 1 + kind.keys)
            .expect("a template's tail");
        self.out.push_str(tail);
    }

    fn metadata(&mut self, kind: &str, pid: u64, tid: u64, name: &str) {
        open(&mut self.out, self.bytes, ",\n{\"ph\":\"M\",\"name\":\"");
        let out = &mut self.out;
        out.push_str(kind);
        out.push_str("\",\"pid\":");
        push_uint(out, pid);
        out.push_str(",\"tid\":");
        push_uint(out, tid);
        out.push_str(",\"args\":{\"name\":\"");
        escape_into(out, name);
        out.push_str("\"}}");
    }

    /// Names process `pid` (shown as a top-level group in the viewer).
    pub fn process_name(&mut self, pid: u64, name: &str) {
        self.metadata("process_name", pid, 0, name);
    }

    /// Names thread `tid` of process `pid` (a row in the viewer).
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        self.metadata("thread_name", pid, tid, name);
    }

    /// Adds a complete slice of `kind` (a [`Kind::Complete`] template):
    /// it ran on row `tid` from `ts_ns` for `dur_ns` nanoseconds. `args`
    /// are the values of the template's per-event keys.
    pub fn complete(&mut self, kind: &Template, tid: u64, ts_ns: u64, dur_ns: u64, args: &[Arg]) {
        debug_assert!(kind.slice, "a slice needs a `Kind::Complete` template");
        let head = self.parts.get(kind.head).expect("a template's head");
        open(&mut self.out, self.bytes, head);
        self.at(tid, ts_ns);
        self.out.push_str(",\"dur\":");
        push_us(&mut self.out, dur_ns);
        self.args(kind, args);
    }

    /// Adds an instant marker of `kind` (a [`Kind::Instant`] template)
    /// at `ts_ns` on row `tid`. `args` are the values of the template's
    /// per-event keys.
    pub fn instant(&mut self, kind: &Template, tid: u64, ts_ns: u64, args: &[Arg]) {
        debug_assert!(!kind.slice, "an instant needs a `Kind::Instant` template");
        let head = self.parts.get(kind.head).expect("a template's head");
        open(&mut self.out, self.bytes, head);
        self.at(tid, ts_ns);
        self.args(kind, args);
    }

    /// Closes the document and returns it.
    pub fn finish(mut self) -> String {
        if self.out.is_empty() {
            self.out.push_str(HEADER);
        }
        self.out.push_str(FOOTER);
        self.out
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
        let mut out = String::new();
        escape_into(&mut out, text);
        out
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
        let mut out = String::new();
        push_us(&mut out, ns);
        out
    }

    fn ms_text(ns: u64) -> String {
        let mut out = String::new();
        push_ms(&mut out, SimDuration::from_nanos(ns));
        out
    }

    fn fixed2_text(x: f64) -> String {
        let mut out = String::new();
        push_fixed2(&mut out, x);
        out
    }

    fn uint_text(n: u64) -> String {
        let mut out = String::new();
        push_uint(&mut out, n);
        out
    }

    #[test]
    fn renders_wellformed_json() {
        let mut trace = ChromeTrace::new(["app0/t1", "t\"2\""], 0);
        trace.process_name(1, "cores");
        trace.thread_name(1, 0, "big0");
        let exec = trace.template(
            Kind::Complete(Arg::Thread(0)),
            "exec",
            1,
            &[("thread", Some(Arg::Uint(1))), ("stop", None)],
        );
        let migrate = trace.template(
            Kind::Instant("migrate \"x\"\n"),
            "sched",
            1,
            &[
                ("who", None),
                ("dir", Some(Arg::Label("little->big"))),
                ("slice", None),
            ],
        );
        let tick = trace.template(Kind::Instant("tick"), "sched", 1, &[]);
        trace.complete(&exec, 0, 0, 1_500_000, &[Arg::Label("Blocked")]);
        trace.instant(
            &migrate,
            0,
            750_000,
            &[
                Arg::Thread(1),
                Arg::Duration(SimDuration::from_micros(2500)),
            ],
        );
        trace.instant(&tick, 3, 1_000, &[]);
        let json = trace.finish();
        check_json_object(&json);
        assert!(json.starts_with(
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{\"ph\":\"M\",\"name\":\"process_name\""
        ));
        assert!(json.contains(concat!(
            ",\n{\"ph\":\"X\",\"name\":\"app0/t1\",\"cat\":\"exec\",\"pid\":1,\"tid\":0,",
            "\"ts\":0.000,\"dur\":1500.000,\"args\":{\"thread\":\"1\",\"stop\":\"Blocked\"}}"
        )));
        assert!(json.contains(concat!(
            ",\n{\"ph\":\"i\",\"s\":\"t\",\"name\":\"migrate \\\"x\\\"\\n\",\"cat\":\"sched\",",
            "\"pid\":1,\"tid\":0,\"ts\":750.000,",
            "\"args\":{\"who\":\"t\\\"2\\\"\",\"dir\":\"little->big\",\"slice\":\"2.500ms\"}}"
        )));
        assert!(json.ends_with(concat!(
            ",\n{\"ph\":\"i\",\"s\":\"t\",\"name\":\"tick\",\"cat\":\"sched\",",
            "\"pid\":1,\"tid\":3,\"ts\":1.000}\n]}\n"
        )));
        assert_eq!(json.matches("\n{").count(), 5);
    }

    #[test]
    fn a_thread_past_the_table_is_named_by_index() {
        let mut trace = ChromeTrace::new(["only"], 0);
        let exec = trace.template(Kind::Complete(Arg::Thread(7)), "exec", 1, &[("peer", None)]);
        trace.complete(&exec, 0, 0, 0, &[Arg::Thread(0)]);
        assert!(trace.finish().contains(concat!(
            "{\"ph\":\"X\",\"name\":\"t7\",\"cat\":\"exec\",\"pid\":1,\"tid\":0,",
            "\"ts\":0.000,\"dur\":0.000,\"args\":{\"peer\":\"only\"}}"
        )));
    }

    #[test]
    fn empty_trace_is_valid() {
        let json = ChromeTrace::new([], 0).finish();
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

    #[test]
    fn integers_match_display() {
        for n in [
            0,
            9,
            10,
            99,
            100,
            999,
            1000,
            999_999,
            1_000_000,
            1 << 40,
            u64::MAX,
        ] {
            assert_eq!(uint_text(n), n.to_string(), "n = {n}");
        }
    }

    #[test]
    fn integer_two_decimals_match_float_formatting_at_edges() {
        for x in [
            0.0,
            -0.0,
            0.004_999_999,
            0.005,
            0.015,
            0.125,
            1.005,
            2.675,
            99.995,
            0.999_999_999,
            f64::MIN_POSITIVE,
            -1.234,
            FIXED2_BOUND - 0.001,
            FIXED2_BOUND,
            1e300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert_eq!(fixed2_text(x), format!("{x:.2}"), "x = {x:e}");
        }
    }

    proptest! {
        fn integers_match_display_anywhere(n in any::<u64>(), small in 0u64..2_000_000) {
            prop_assert_eq!(uint_text(n), n.to_string());
            prop_assert_eq!(uint_text(small), small.to_string());
        }

        fn two_decimals_match_for_speedups(x in 0.0f64..8.0) {
            prop_assert_eq!(fixed2_text(x), format!("{x:.2}"));
        }

        fn two_decimals_match_for_throttle_factors(x in 0.0f64..2.0) {
            prop_assert_eq!(fixed2_text(x), format!("{x:.2}"));
        }

        fn two_decimals_match_near_ties(hundredths in 0u64..1_000_000, off in -1e-9f64..1e-9) {
            let x = hundredths as f64 / 100.0 + 0.005 + off;
            prop_assert_eq!(fixed2_text(x), format!("{x:.2}"));
        }

        fn two_decimals_match_just_outside_the_tie_slack(
            hundredths in 0u64..1_000_000,
            off in -1e-7f64..1e-7,
        ) {
            let x = hundredths as f64 / 100.0 + 0.005 + off;
            prop_assert_eq!(fixed2_text(x), format!("{x:.2}"));
        }

        fn two_decimals_match_for_negatives(x in -1e7f64..0.0) {
            prop_assert_eq!(fixed2_text(x), format!("{x:.2}"));
        }

        fn two_decimals_match_at_and_above_the_bound(x in FIXED2_BOUND..1e15) {
            prop_assert_eq!(fixed2_text(x), format!("{x:.2}"));
        }

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
