//! Property tests of `hemocloud_obs::json`, placed here because `rt`
//! already depends on `obs` and owns the `rt::check` harness: for random
//! `Value` trees `write → parse → write` is a fixed point, and mangled
//! documents are rejected with a typed error instead of a panic.

use hemocloud_obs::json::{parse, ParseErrorKind, Value, Writer};
use hemocloud_rt::check::{self, Config};
use hemocloud_rt::rng::Rng;

fn render(v: &Value) -> String {
    let mut w = Writer::new();
    w.value(v);
    w.finish()
}

/// Quotes, backslashes, control, non-ASCII and astral characters.
fn random_string(rng: &mut Rng) -> String {
    const ALPHABET: [char; 16] = [
        'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é',
        '血', '😀',
    ];
    (0..rng.range_usize(0, 12))
        .map(|_| ALPHABET[rng.range_usize(0, ALPHABET.len())])
        .collect()
}

fn random_float(rng: &mut Rng) -> f64 {
    match rng.range_usize(0, 8) {
        0 => -0.0,
        1 => f64::from_bits(rng.range_u64(1, 1 << 52)), // subnormal
        2 => f64::MAX,
        3 => f64::MIN_POSITIVE,
        4 => rng.range_f64(-1e6, 1e6),
        5 => rng.range_f64(-1.0, 1.0) * 1e-300,
        6 => rng.range_f64(-1.0, 1.0) * 1e300,
        // Any finite bit pattern at all.
        _ => Some(f64::from_bits(rng.next_u64()))
            .filter(|f| f.is_finite())
            .unwrap_or(1.5),
    }
}

fn random_value(rng: &mut Rng, depth: usize) -> Value {
    let kinds = if depth == 0 { 5 } else { 7 };
    match rng.range_usize(0, kinds) {
        0 => Value::Null,
        1 => Value::Bool(rng.next_bool()),
        2 => Value::UInt(match rng.range_usize(0, 3) {
            0 => u64::MAX,
            1 => 11_155_200_000_000, // beyond 2^53 territory: Eq. 9 byte totals
            _ => rng.next_u64(),
        }),
        3 => Value::Float(random_float(rng)),
        4 => Value::Str(random_string(rng)),
        5 => Value::Array(
            (0..rng.range_usize(0, 5))
                .map(|_| random_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..rng.range_usize(0, 5))
                .map(|_| (random_string(rng), random_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

#[test]
fn write_parse_write_is_a_fixed_point() {
    check::run(
        "write_parse_write_is_a_fixed_point",
        Config::cases(256),
        |rng| {
            let value = random_value(rng, 4);
            let text = render(&value);
            let parsed = parse(&text).unwrap_or_else(|e| panic!("{e} in {text:?}"));
            // Every generated value is in the parser's canonical form, so the
            // tree itself survives, not just its rendering (compared by
            // rendering: -0.0 == 0.0 would hide a lost sign).
            assert_eq!(render(&parsed), text);
            assert_eq!(parsed, value);
        },
    );
}

#[test]
fn non_finite_floats_write_as_null_and_stay_null() {
    let doc = Value::Array(vec![
        Value::Float(f64::NAN),
        Value::Float(f64::INFINITY),
        Value::Float(f64::NEG_INFINITY),
    ]);
    let text = render(&doc);
    assert_eq!(text, "[null, null, null]\n");
    assert_eq!(render(&parse(&text).unwrap()), text);
}

#[test]
fn non_json_tokens_are_typed_errors() {
    for (text, kind) in [
        ("{\"gauge\": NaN}", ParseErrorKind::UnexpectedChar),
        ("{\"gauge\": inf}", ParseErrorKind::UnexpectedChar),
        ("{\"gauge\": -inf}", ParseErrorKind::InvalidNumber),
        ("[1, 2, ]", ParseErrorKind::TrailingComma),
        ("{\"a\": 1, }", ParseErrorKind::TrailingComma),
        ("{\"name\": \"a", ParseErrorKind::UnterminatedString),
    ] {
        assert_eq!(parse(text).map_err(|e| e.kind), Err(kind), "{text:?}");
    }
}

#[test]
fn mangled_documents_never_panic() {
    check::run("mangled_documents_never_panic", Config::cases(256), |rng| {
        let mut bytes = render(&random_value(rng, 3)).into_bytes();
        match rng.range_usize(0, 3) {
            0 => bytes.truncate(rng.range_usize(0, bytes.len())),
            1 => {
                let at = rng.range_usize(0, bytes.len());
                const NOISE: &[u8] = b"{}[]\",:\\nNi-0e. \x01\xff";
                bytes[at] = NOISE[rng.range_usize(0, NOISE.len())];
            }
            _ => {
                let at = rng.range_usize(0, bytes.len());
                bytes.insert(at, b',');
            }
        }
        // Whatever it is now, parsing returns; a result that is Ok must
        // itself round-trip.
        if let Ok(value) = parse(&String::from_utf8_lossy(&bytes)) {
            let text = render(&value);
            assert_eq!(render(&parse(&text).expect("own output parses")), text);
        }
    });
}
