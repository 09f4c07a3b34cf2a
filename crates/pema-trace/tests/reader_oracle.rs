//! The single-pass trace reader against the tree reader it replaced.
//!
//! `Trace::parse_jsonl` used to build a `json::Value` tree per line and
//! drain it through `ObjReader`; it now fills the structs straight
//! from a `json::Reader`. The old route is kept, test-only, in
//! `support/parent_reader.rs`, and this property holds the new one to
//! it on files the writer never produces: keys in any order, unknown,
//! repeated and missing keys at every object level, stray whitespace,
//! blank lines, a line cut short, a byte overwritten — in both reading
//! modes. The two must return the same trace, or both fail **on the
//! same file line**. (Which of several faults on one line gets named
//! may differ: the tree reader met syntax errors first.)

#[path = "support/parent_reader.rs"]
mod parent_reader;

use pema_sim::{ServiceWindowStats, WindowStats};
use pema_telemetry::json::{self, Value};
use pema_trace::{ReadMode, Trace, TraceMeta, TraceRecord};
use proptest::prelude::*;
use proptest::strategy::{boxed, OneOf};

// ---- traces: `trace_roundtrip.rs`'s adversarial generator ----

fn any_f64() -> OneOf<f64> {
    OneOf::new(vec![
        boxed(0.0f64..1e6),
        boxed((-1e3f64..1e3).prop_map(|x| x / 3.0)),
        boxed(Just(f64::INFINITY)),
        boxed(Just(0.0f64)),
        boxed(Just(-0.0f64)),
        boxed(Just(f64::MIN_POSITIVE / 2.0)), // subnormal
        boxed(Just(1.0f64 / 3.0)),
        boxed(Just(f64::MAX)),
    ])
}

fn build_trace(n_services: usize, n_records: usize, floats: &[f64], counts: &[u64]) -> Trace {
    let mut f = floats.iter().copied().cycle();
    let mut c = counts.iter().copied().cycle();
    let mut nf = move || f.next().unwrap();
    // One name needs every kind of escape.
    let services: Vec<String> = (0..n_services)
        .map(|i| match i {
            1 => "svc\"1\\\n\u{1}é😀".to_string(),
            _ => format!("svc-{i}"),
        })
        .collect();
    let mut start = 0.0f64;
    let records = (0..n_records)
        .map(|i| {
            let duration = 5.0 + (i as f64);
            let record = TraceRecord {
                iter: i as u64,
                time_s: start,
                rps: nf().abs().min(1e5),
                action: format!("action-{i}\"quoted\""),
                pema_id: (i % 3) as u64,
                alloc: (0..n_services).map(|_| nf()).collect(),
                stats: WindowStats {
                    start_s: start + 1.0,
                    duration_s: duration,
                    offered_rps: nf(),
                    achieved_rps: nf(),
                    completed: c.next().unwrap(),
                    arrivals: c.next().unwrap(),
                    mean_ms: nf(),
                    p50_ms: nf(),
                    p95_ms: nf(),
                    p99_ms: nf(),
                    max_ms: nf(),
                    per_service: (0..n_services)
                        .map(|_| ServiceWindowStats {
                            alloc_cores: nf(),
                            util_pct: nf(),
                            cpu_used_s: nf(),
                            throttled_s: nf(),
                            usage_p90_cores: nf(),
                            usage_peak_cores: nf(),
                            mem_bytes: nf(),
                            visits: c.next().unwrap(),
                            mean_self_ms: nf(),
                            mean_visit_ms: nf(),
                        })
                        .collect(),
                },
            };
            start += 1.0 + duration;
            record
        })
        .collect();
    Trace {
        meta: TraceMeta {
            app: "prop-app".into(),
            services,
            slo_ms: 100.0,
            interval_s: 40.0,
            warmup_s: 4.0,
            backend_seed: counts.first().copied().unwrap_or(7),
            policy: "pema".into(),
            policy_seed: counts.last().copied().unwrap_or(11),
            early_check_s: if n_records.is_multiple_of(2) {
                None
            } else {
                Some(nf().abs())
            },
            initial_alloc: (0..n_services).map(|_| nf().abs() + 0.05).collect(),
        },
        records,
    }
}

// ---- damage ----

/// splitmix64: where and how a file is damaged comes from one seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len())]
    }
}

/// What is done to a file before both readers see it.
#[derive(Debug, Clone, Copy)]
enum Damage {
    /// Nothing: the file as the writer wrote it.
    WriterOrder,
    /// The keys of every object of every line, shuffled.
    Shuffled,
    /// A key no reader knows, in one object of the given level: 0 a
    /// record, 1 its `stats`, 2 one of its services, 3 the header.
    UnknownKey(usize),
    /// One key of one object a second time, after the first, with a
    /// value of another type.
    RepeatedKey,
    /// One key of one object gone.
    DroppedKey,
    /// Whitespace wherever JSON allows it.
    Whitespace,
    /// Blank and whitespace-only lines between the lines, and — half
    /// the time — one record's `alloc` an entry short, so that the
    /// structural check has a real line to name.
    BlankLines,
    /// One line cut short.
    Truncated,
    /// One byte of the file overwritten.
    MutatedByte,
}

const DAMAGE: [Damage; 12] = [
    Damage::WriterOrder,
    Damage::Shuffled,
    Damage::UnknownKey(0),
    Damage::UnknownKey(1),
    Damage::UnknownKey(2),
    Damage::UnknownKey(3),
    Damage::RepeatedKey,
    Damage::DroppedKey,
    Damage::Whitespace,
    Damage::BlankLines,
    Damage::Truncated,
    Damage::MutatedByte,
];

fn fields(v: &mut Value) -> &mut Vec<(String, Value)> {
    match v {
        Value::Obj(fields) => fields,
        other => panic!("expected an object, found {}", other.kind()),
    }
}

fn child<'v>(v: &'v mut Value, key: &str) -> &'v mut Value {
    let (_, child) = fields(v).iter_mut().find(|(k, _)| k == key).unwrap();
    child
}

/// The fields of one object of `lines` at `level` (see
/// [`Damage::UnknownKey`]), and the index of the line it is on.
fn object_at<'v>(
    lines: &'v mut [Value],
    level: usize,
    rng: &mut Rng,
) -> (usize, &'v mut Vec<(String, Value)>) {
    if level == 3 {
        return (0, fields(&mut lines[0]));
    }
    let at = 1 + rng.below(lines.len() - 1);
    let mut v = &mut lines[at];
    if level >= 1 {
        v = child(v, "stats");
    }
    if level == 2 {
        let Value::Arr(services) = child(v, "per_service") else {
            panic!("per_service is an array");
        };
        let service = rng.below(services.len());
        v = &mut services[service];
    }
    (at, fields(v))
}

fn shuffle(v: &mut Value, rng: &mut Rng) {
    match v {
        Value::Obj(fields) => {
            for i in (1..fields.len()).rev() {
                fields.swap(i, rng.below(i + 1));
            }
            fields.iter_mut().for_each(|(_, v)| shuffle(v, rng));
        }
        Value::Arr(items) => items.iter_mut().for_each(|v| shuffle(v, rng)),
        _ => {}
    }
}

/// Serializes `v`, numbers by their raw tokens, with `space()` between
/// any two tokens.
fn write_value(v: &Value, space: &mut impl FnMut() -> &'static str, out: &mut String) {
    out.push_str(space());
    match v {
        Value::Obj(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                out.push_str(if i > 0 { "," } else { "" });
                out.push_str(space());
                json::push_quoted(out, k);
                out.push_str(space());
                out.push(':');
                write_value(v, space, out);
            }
            out.push_str(space());
            out.push('}');
        }
        Value::Arr(items) => {
            out.push('[');
            for (i, v) in items.iter().enumerate() {
                out.push_str(if i > 0 { "," } else { "" });
                write_value(v, space, out);
            }
            out.push_str(space());
            out.push(']');
        }
        Value::Num(raw) => out.push_str(raw),
        Value::Str(s) => json::push_quoted(out, s),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Null => out.push_str("null"),
    }
    out.push_str(space());
}

fn to_text(lines: &[Value], space: &mut impl FnMut() -> &'static str) -> String {
    let mut out = String::new();
    for line in lines {
        write_value(line, space, &mut out);
        out.push('\n');
    }
    out
}

/// A damaged copy of `text`, and the file line (1-based) the damage
/// is on where it is on one line.
fn damaged(text: &str, damage: Damage, rng: &mut Rng) -> (String, Option<usize>) {
    const UNKNOWN_KEYS: &[&str] = &["future_field", "zz", "", "iter ", "ITER", "alloc_cores2"];
    const VALUES: &[&str] = &[
        "[1,2]",
        "{\"deep\":{\"er\":[{\"x\":null},[]]}}",
        "\"text\"",
        "null",
        "true",
        "-0.5e-3",
        "\"inf\"",
        "[null]",
    ];
    let mut lines: Vec<Value> = text.lines().map(|l| json::parse(l).unwrap()).collect();
    let mut compact = || "";
    match damage {
        Damage::WriterOrder => (text.to_string(), None),
        Damage::Shuffled => {
            lines.iter_mut().for_each(|l| shuffle(l, rng));
            (to_text(&lines, &mut compact), None)
        }
        Damage::UnknownKey(level) => {
            let (at, fields) = object_at(&mut lines, level, rng);
            let value = json::parse(rng.pick(VALUES)).unwrap();
            let key = rng.pick(UNKNOWN_KEYS).to_string();
            fields.insert(rng.below(fields.len() + 1), (key, value));
            (to_text(&lines, &mut compact), Some(at + 1))
        }
        Damage::RepeatedKey => {
            let (at, fields) = object_at(&mut lines, rng.below(4), rng);
            let first = rng.below(fields.len());
            let key = fields[first].0.clone();
            let again = first + 1 + rng.below(fields.len() - first);
            fields.insert(again, (key, Value::Arr(vec![Value::Null])));
            (to_text(&lines, &mut compact), Some(at + 1))
        }
        Damage::DroppedKey => {
            let (at, fields) = object_at(&mut lines, rng.below(4), rng);
            fields.remove(rng.below(fields.len()));
            (to_text(&lines, &mut compact), Some(at + 1))
        }
        Damage::Whitespace => {
            let mut space = || rng.pick(&["", "", " ", "\t", "\r", "  \t "]);
            (to_text(&lines, &mut space), None)
        }
        Damage::BlankLines => {
            let short = (rng.below(2) == 0).then(|| {
                let (at, fields) = object_at(&mut lines, 0, rng);
                let (_, Value::Arr(alloc)) = fields.iter_mut().find(|(k, _)| k == "alloc").unwrap()
                else {
                    panic!("alloc is an array");
                };
                alloc.pop();
                at
            });
            let mut out = String::new();
            let mut short_line = None;
            for (i, line) in to_text(&lines, &mut compact).lines().enumerate() {
                for _ in 0..rng.below(3) {
                    out.push_str(rng.pick(&["\n", "  \n", "\t\r\n"]));
                }
                if short == Some(i) {
                    short_line = Some(out.lines().count() + 1);
                }
                out.push_str(line);
                out.push('\n');
            }
            (out, short_line)
        }
        Damage::Truncated => {
            let at = rng.below(lines.len());
            let out: Vec<&str> = text
                .lines()
                .enumerate()
                .map(|(i, line)| {
                    if i != at {
                        return line;
                    }
                    let mut cut = rng.below(line.len());
                    while !line.is_char_boundary(cut) {
                        cut -= 1;
                    }
                    &line[..cut]
                })
                .collect();
            (out.join("\n"), None)
        }
        Damage::MutatedByte => {
            const BYTES: &[u8] = b"{}[]\",:\\/unrtfalse0123456789+-.eE \t\n\x01";
            let mut bytes = text.as_bytes().to_vec();
            bytes[rng.below(text.len())] = BYTES[rng.below(BYTES.len())];
            (String::from_utf8_lossy(&bytes).into_owned(), None)
        }
    }
}

// ---- the property ----

fn check(
    trace: &Trace,
    damage: Damage,
    text: &str,
    line: Option<usize>,
    mode: ReadMode,
) -> Result<(), TestCaseError> {
    let new = Trace::parse_jsonl(text, mode);
    let old = parent_reader::parse_jsonl(text, mode);
    match (&new, &old) {
        // Bit-equal, -0.0 and all: writing is canonical.
        (Ok(new), Ok(old)) => prop_assert_eq!(new.to_jsonl(), old.to_jsonl()),
        (Err(new), Err(old)) => prop_assert!(
            new.line == old.line,
            "{damage:?}/{mode:?}: reader `{new}`, tree reader `{old}`"
        ),
        _ => prop_assert!(
            false,
            "{damage:?}/{mode:?}: reader {new:?}, tree reader {old:?}\n{text}"
        ),
    }

    // What each kind of damage must come to, whatever the tree reader
    // says: the rules `docs/trace-format.md` states.
    let reads_back = || new.as_ref().is_ok_and(|t| t.to_jsonl() == trace.to_jsonl());
    let fails_with = |what: &str| {
        new.as_ref()
            .is_err_and(|e| Some(e.line) == line && e.message.contains(what))
    };
    let strict = mode == ReadMode::Strict;
    let as_documented = match damage {
        Damage::WriterOrder | Damage::Shuffled | Damage::Whitespace => reads_back(),
        Damage::UnknownKey(_) | Damage::RepeatedKey if strict => fails_with("unknown key"),
        Damage::UnknownKey(_) | Damage::RepeatedKey => reads_back(),
        Damage::DroppedKey => fails_with("missing required key"),
        Damage::BlankLines if line.is_some() => fails_with("alloc has"),
        Damage::BlankLines => reads_back(),
        Damage::Truncated | Damage::MutatedByte => true,
    };
    prop_assert!(
        as_documented,
        "{damage:?}/{mode:?} (damage on line {line:?}): {new:?}\n{text}"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn the_reader_reads_what_the_tree_reader_read(
        n_services in 1usize..6,
        n_records in 1usize..6,
        floats in proptest::collection::vec(any_f64(), 32..64),
        counts in proptest::collection::vec(0u64..=u64::MAX, 8..16),
        seed in 0u64..=u64::MAX,
    ) {
        let trace = build_trace(n_services, n_records, &floats, &counts);
        let text = trace.to_jsonl();
        let mut rng = Rng(seed);
        for damage in DAMAGE {
            // Several draws of the kinds with a place to choose.
            let draws = if matches!(damage, Damage::WriterOrder) { 1 } else { 4 };
            for _ in 0..draws {
                let (text, line) = damaged(&text, damage, &mut rng);
                for mode in [ReadMode::Strict, ReadMode::Lenient] {
                    check(&trace, damage, &text, line, mode)?;
                }
            }
        }
    }
}

/// A value nobody asked for is still walked, so its nesting counts: a
/// lenient reader skipping a hostile unknown key reports the limit
/// instead of overflowing the stack (the tree reader did, which is why
/// it is not consulted here).
#[test]
fn nesting_past_the_limit_in_a_skipped_value_is_an_error_naming_the_line() {
    let trace = build_trace(2, 2, &[1.5, 0.25], &[3]);
    let text = trace.to_jsonl();
    let with_unknown = |value: &str| {
        text.replacen(
            "{\"iter\":1,",
            &format!("{{\"iter\":1,\"future_field\":{value},"),
            1,
        )
    };
    let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));

    // The record's own `{` is one level of the 128.
    let at_limit = with_unknown(&nested(127));
    let back = Trace::parse_jsonl(&at_limit, ReadMode::Lenient).unwrap();
    assert_eq!(back, trace);

    for hostile in [nested(128), "[".repeat(1 << 20), "{\"a\":".repeat(1 << 20)] {
        for mode in [ReadMode::Lenient, ReadMode::Strict] {
            let e = Trace::parse_jsonl(&with_unknown(&hostile), mode).unwrap_err();
            assert_eq!(e.line, 3, "{e}");
            if mode == ReadMode::Lenient {
                assert!(e.message.contains("nesting deeper than 128 levels"), "{e}");
            }
        }
    }
}
