//! Property tests for `serve::json`: every value the encoder can emit must
//! parse back to the same value (the wire protocol's determinism tests
//! compare reply bytes, so encode must be a fixpoint of parse∘encode), the
//! parser must refuse nesting past its recursion bound instead of
//! overflowing the thread stack, every string and number without an
//! escape is borrowed from the input, escaped strings (surrogate pairs
//! included) decode to the characters they spell, and malformed input is
//! refused with a pinned message and byte offset.

use std::borrow::Cow;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use retypd_serve::json::{Json, MAX_DEPTH};

/// Characters exercising the writer's escape paths (quotes, backslash,
/// control bytes) and the parser's UTF-8 fast path (multi-byte runs).
const STRING_POOL: &[char] = &[
    'a', 'z', '0', '_', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'σ', '⊑',
    'é', '😀',
];

fn gen_string(rng: &mut StdRng) -> String {
    (0..rng.gen_range(0..12usize))
        .map(|_| STRING_POOL[rng.gen_range(0..STRING_POOL.len())])
        .collect()
}

/// A random JSON value with container nesting bounded by `depth`.
fn gen_value(rng: &mut StdRng, depth: usize) -> Json<'static> {
    let pick = if depth == 0 {
        rng.gen_range(0..4u32)
    } else {
        rng.gen_range(0..6u32)
    };
    match pick {
        0 => Json::Null,
        1 => Json::Bool(rng.gen()),
        // Numbers are literal text; cover integers (incl. > 2^53, which an
        // f64 model would corrupt), negatives, and decimals.
        2 => match rng.gen_range(0..3u32) {
            0 => Json::u64(rng.gen()),
            1 => Json::Num(format!("-{}", rng.gen::<u32>()).into()),
            _ => Json::Num(format!("{}.{}", rng.gen::<u16>(), rng.gen_range(0..1000u32)).into()),
        },
        3 => Json::Str(gen_string(rng).into()),
        4 => Json::Arr(
            (0..rng.gen_range(0..4usize))
                .map(|_| gen_value(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.gen_range(0..4usize))
                .map(|_| (gen_string(rng).into(), gen_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// Checks that every string, key and number of `v` that its input spells
/// without an escape is borrowed from `input`, and every other string is
/// owned. The encoder escapes exactly quotes, backslashes and control
/// characters, so those decide.
fn assert_borrowed_from(v: &Json<'_>, input: &str) {
    let check = |s: &Cow<'_, str>| {
        let escaped = s.chars().any(|c| c == '"' || c == '\\' || c < ' ');
        match s {
            Cow::Borrowed(b) => {
                assert!(!escaped, "{b:?} has an escape but is borrowed");
                let (start, end) = (
                    input.as_ptr() as usize,
                    input.as_ptr() as usize + input.len(),
                );
                let at = b.as_ptr() as usize;
                assert!(
                    start <= at && at + b.len() <= end,
                    "{b:?} does not point into the input"
                );
                assert_eq!(&input[at - start..at - start + b.len()], *b);
            }
            Cow::Owned(o) => assert!(escaped, "{o:?} has no escape but was copied"),
        }
    };
    match v {
        Json::Num(n) => {
            assert!(matches!(n, Cow::Borrowed(_)), "number {n} was copied");
            check(n);
        }
        Json::Str(s) => check(s),
        Json::Arr(items) => items.iter().for_each(|i| assert_borrowed_from(i, input)),
        Json::Obj(members) => members.iter().for_each(|(k, i)| {
            check(k);
            assert_borrowed_from(i, input);
        }),
        Json::Null | Json::Bool(_) => {}
    }
}

/// `s` as a JSON string literal with every character escaped as the
/// encoder never does: `\uXXXX`, as a surrogate pair above the BMP.
fn escape_all(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        let mut units = [0u16; 2];
        for unit in c.encode_utf16(&mut units) {
            out.push_str(&format!("\\u{unit:04X}"));
        }
    }
    out.push('"');
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn unescaped_text_is_borrowed_from_the_input(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let depth = rng.gen_range(0..8usize);
        let enc = gen_value(&mut rng, depth).encode();
        assert_borrowed_from(&Json::parse(&enc).expect("encoder output must parse"), &enc);
    }

    #[test]
    fn escapes_decode_to_the_characters_they_spell(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = gen_string(&mut rng);
        let doc = escape_all(&s);
        let parsed = Json::parse(&doc).expect("escaped string parses");
        prop_assert_eq!(parsed.as_str(), Some(s.as_str()));
        // Mixed with plain runs, in an array beside a borrowed twin.
        let mixed = format!("[{}, \"{}{}\"]", Json::str(s.as_str()).encode(), s.len(), &doc[1..doc.len() - 1]);
        let parsed = Json::parse(&mixed).expect("mixed literal parses");
        let items = parsed.as_arr().expect("array");
        prop_assert_eq!(items[0].as_str(), Some(s.as_str()));
        prop_assert_eq!(items[1].as_str(), Some(format!("{}{s}", s.len()).as_str()));
    }

    #[test]
    fn encode_then_parse_is_the_identity(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let depth = rng.gen_range(0..8usize);
        let v = gen_value(&mut rng, depth);
        let enc = v.encode();
        let back = Json::parse(&enc).expect("encoder output must parse");
        prop_assert_eq!(&back, &v);
        // And the encoding is deterministic (a fixpoint, not just stable).
        prop_assert_eq!(back.encode(), enc);
    }

    #[test]
    fn nesting_past_the_limit_is_rejected(extra in any::<u8>()) {
        // From 1 past the bound up to deep bomb territory: always a clean
        // error, never deeper recursion.
        let depth = MAX_DEPTH + 1 + extra as usize * 16;
        let deep = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        let err = Json::parse(&deep).expect_err("over-deep input must be refused");
        prop_assert!(err.to_string().contains("nesting"), "{}", err);
    }
}

#[test]
fn the_limit_itself_round_trips() {
    // A value at exactly MAX_DEPTH encodes and parses back — the bound
    // rejects only what is *deeper* than anything the protocol emits.
    let mut v = Json::u64(7);
    for _ in 0..MAX_DEPTH {
        v = Json::Arr(vec![v]);
    }
    let enc = v.encode();
    assert_eq!(Json::parse(&enc).expect("at-limit value parses"), v);
}

#[test]
fn surrogate_pairs_decode_to_their_character() {
    for (doc, want) in [
        (r#""\ud83d\ude00""#, "😀"),
        (r#""a\uD834\uDD1Eb""#, "a𝄞b"),
        (r#""\u00e9\u4e2d\n""#, "é中\n"),
        (r#""\udbff\udfff""#, "\u{10ffff}"),
    ] {
        let parsed = Json::parse(doc).expect("escaped string parses");
        assert_eq!(parsed.as_str(), Some(want), "{doc}");
        assert!(
            matches!(parsed, Json::Str(Cow::Owned(_))),
            "{doc} is unescaped"
        );
    }
}

/// Every malformed input is refused with the message and byte offset the
/// parser has always given, except the numbers JSON does not allow, which
/// the parser used to accept (`01x` was refused only at its `x`).
#[test]
fn malformed_input_errors_are_pinned() {
    for (bad, want) in [
        ("", "expected a JSON value at byte 0"),
        ("{", "expected \" at byte 1"),
        ("[1,", "expected a JSON value at byte 3"),
        ("\"unterminated", "unterminated string at byte 13"),
        ("{\"a\" 1}", "expected : at byte 5"),
        ("tru", "expected `true` at byte 0"),
        ("1 2", "trailing data after document at byte 2"),
        ("-", "expected digits at byte 1"),
        ("1e", "expected exponent digits at byte 2"),
        ("\"\\x\"", "unknown escape at byte 3"),
        ("\"\\ud800\\u0041\"", "invalid low surrogate at byte 13"),
        ("\"a\u{1}\"", "unterminated string at byte 2"),
        ("[1 2]", "expected `,` or `]` at byte 3"),
        ("{\"a\":1,}", "expected \" at byte 7"),
        ("\"\\u12G4\"", "bad hex digit in \\u escape at byte 5"),
        // Refused since the parser follows JSON's number grammar.
        ("01x", "leading zero in number at byte 1"),
        ("01", "leading zero in number at byte 1"),
        ("-01", "leading zero in number at byte 2"),
        ("1.", "expected fraction digits at byte 2"),
        ("1.e5", "expected fraction digits at byte 2"),
    ] {
        let err = Json::parse(bad).expect_err(bad);
        assert_eq!(err.to_string(), want, "{bad:?}");
    }
}
