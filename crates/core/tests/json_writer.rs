//! Round trips through the one JSON writer: what [`JsonWriter`] writes,
//! `splu_client::parse` (the workspace's JSON reader) reads back to the
//! same value — strings with every control character, quotes, backslashes,
//! non-ASCII and non-BMP characters; floats from random bit patterns (a
//! finite one comes back with its bits, NaN and ±∞ as `null`); nested
//! objects and arrays; `None` members. Strings with every character
//! written as a `\u` escape (surrogate pairs beyond the BMP) read back
//! equal as well.

use proptest::prelude::*;
use splu_client::{parse, Json};
use splu_core::{JsonWriter, MatrixMeta, ObsSession, Options, RunStatus};

/// A character the escaper must get right: a control character, one of a
/// few hand-picked ones (quote, backslash, `/`, DEL, 2-, 3- and 4-byte
/// UTF-8, the last code point), printable ASCII, or any code point.
fn arb_char(rng: &mut TestRng) -> char {
    const PICKED: [char; 8] = [
        '"',
        '\\',
        '/',
        '\u{7f}',
        'é',
        '\u{2028}',
        '😀',
        '\u{10ffff}',
    ];
    let r = rng.next_u64();
    let code = match r % 4 {
        0 => (r >> 8) % 0x20,
        1 => return PICKED[(r >> 8) as usize % PICKED.len()],
        2 => 0x20 + (r >> 8) % 0x5f,
        _ => (r >> 8) % 0x11_0000,
    };
    char::from_u32(code as u32).unwrap_or('\u{fffd}')
}

fn arb_string(rng: &mut TestRng) -> String {
    let len = rng.next_u64() % 12;
    (0..len).map(|_| arb_char(rng)).collect()
}

/// A float from a random bit pattern: any finite value, subnormals and
/// both zeros included.
fn arb_finite(rng: &mut TestRng) -> f64 {
    loop {
        let x = f64::from_bits(rng.next_u64());
        if x.is_finite() {
            return x;
        }
    }
}

/// A random document up to `depth` containers deep.
fn arb_json(rng: &mut TestRng, depth: u32) -> Json {
    let kinds = if depth == 0 { 4 } else { 6 };
    match rng.next_u64() % kinds {
        0 => Json::Null,
        1 => Json::Bool(rng.next_u64() & 1 == 0),
        2 => Json::Num(arb_finite(rng)),
        3 => Json::Str(arb_string(rng)),
        4 => Json::Arr(
            (0..rng.next_u64() % 5)
                .map(|_| arb_json(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.next_u64() % 5)
                .map(|_| (arb_string(rng), arb_json(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// Writes `v` through the writer: `null` as a `None`.
fn write(w: &mut JsonWriter, v: &Json) {
    match v {
        Json::Null => w.opt(None::<f64>, JsonWriter::f64),
        Json::Bool(b) => w.lit(b),
        Json::Num(x) => w.f64(*x),
        Json::Str(s) => w.str(s),
        Json::Arr(items) => w.arr(|w| items.iter().for_each(|v| write(w, v))),
        Json::Obj(members) => w.obj(|w| {
            for (k, v) in members {
                w.key(k);
                write(w, v);
            }
        }),
    };
}

fn written(v: &Json) -> String {
    let mut w = JsonWriter::default();
    write(&mut w, v);
    w.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn documents_read_back_to_what_was_written(
        doc in Just(()).prop_perturb(|_, mut rng| arb_json(&mut rng, 4))
    ) {
        let text = written(&doc);
        prop_assert!(!text.contains('\n'), "one line: {text:?}");
        prop_assert_eq!(parse(&text), Ok(doc));
    }

    /// Another writer may escape every character: `\uXXXX` for the BMP, a
    /// surrogate pair for the rest. Those strings read back equal too.
    #[test]
    fn strings_escaped_char_by_char_read_back_equal(
        s in Just(()).prop_perturb(|_, mut rng| arb_string(&mut rng))
    ) {
        let mut text = String::from("\"");
        for unit in s.encode_utf16() {
            text.push_str(&format!("\\u{unit:04x}"));
        }
        text.push('"');
        prop_assert_eq!(parse(&text), Ok(Json::Str(s)));
    }

    #[test]
    fn floats_keep_their_bits_and_non_finite_ones_are_null(bits in 0..u64::MAX) {
        let x = f64::from_bits(bits);
        let mut w = JsonWriter::default();
        w.arr(|w| {
            w.f64(x).float(x, format_args!("{x:e}")).opt(Some(x), JsonWriter::f64);
        });
        let text = w.finish();
        let back = parse(&text).map_err(|e| TestCaseError::fail(format!("{e}: {text}")))?;
        for v in back.as_arr().unwrap() {
            match x.is_finite() {
                true => prop_assert_eq!(v.as_num().map(f64::to_bits), Some(bits)),
                false => prop_assert_eq!(v, &Json::Null),
            }
        }
    }
}

/// The exact text: no whitespace, the short escapes for `\n`, `\r`, `\t`,
/// `\u00XX` for the other control characters, numerals as formatted,
/// `None` and non-finite floats as `null`, embedded text as it is.
#[test]
fn the_format_is_compact_and_escapes_as_the_daemon_always_did() {
    let mut w = JsonWriter::default();
    w.obj(|w| {
        w.key("s").str("m\"x\\y\nz\r\t\u{1}é😀");
        w.key("n").lit(7).key("ok").lit(true);
        w.key("t")
            .float(0.1234567, format_args!("{:.3}", 0.1234567));
        w.key("nan")
            .f64(f64::NAN)
            .key("none")
            .opt(None::<u8>, JsonWriter::lit);
        w.key("a").arr(|w| {
            w.lit(1).obj(|_| {}).arr(|_| {});
        });
        w.key("raw").raw(r#"{"x":[1]}"#);
    });
    assert_eq!(
        w.finish(),
        r#"{"s":"m\"x\\y\nz\r\t\u0001é😀","n":7,"ok":true,"t":0.123,"nan":null,"none":null,"a":[1,{},[]],"raw":{"x":[1]}}"#
    );
}

/// A `\uD8xx\uDCxx` surrogate pair reads as one character; a lone high
/// or low surrogate as U+FFFD.
#[test]
fn surrogate_pairs_read_as_one_char_and_lone_ones_as_the_replacement() {
    let str_of = |text: &str| parse(text).unwrap().as_str().map(String::from);
    assert_eq!(str_of(r#""\ud83d\ude00""#).as_deref(), Some("\u{1f600}"));
    assert_eq!(
        str_of(r#""a\uD83D\uDE00b""#).as_deref(),
        Some("a\u{1f600}b")
    );
    for (lone, want) in [
        (r#""\ud83d""#, "\u{fffd}"),
        (r#""\ude00""#, "\u{fffd}"),
        (r#""\ud83dx""#, "\u{fffd}x"),
        (r#""\ud83d\u0041""#, "\u{fffd}A"),
        (r#""\ude00\ud83d""#, "\u{fffd}\u{fffd}"),
    ] {
        assert_eq!(str_of(lone).as_deref(), Some(want), "{lone}");
    }
}

/// A name from outside the program — here a hostile matrix name, on a span
/// and in the report — reads back unchanged from both documents.
#[test]
fn hostile_names_read_back_from_the_chrome_trace_and_the_report() {
    let name = "m\"x\\y\nz\u{1}\u{1f}😀";
    let session = ObsSession::new();
    drop(session.trace().span(name));
    let trace = parse(&session.chrome_json()).expect("the trace parses");
    let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
    let span = events
        .iter()
        .find(|e| e.get("cat").and_then(Json::as_str) == Some("phase"));
    assert_eq!(span.and_then(|e| e.get("name")?.as_str()), Some(name));
    let matrix = MatrixMeta {
        name: name.to_string(),
        n: 1,
        nnz: 1,
    };
    let report = session.report(matrix, &Options::default(), RunStatus::success());
    let report = parse(&report.to_json()).expect("the report parses");
    let read = report.get("matrix").and_then(|m| m.get("name")?.as_str());
    assert_eq!(read, Some(name));
}
