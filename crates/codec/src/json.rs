//! The one JSON field reader behind every hand-written results file.
//!
//! The workspace writes its JSON by hand — golden trace digests, the
//! crash journal, `BENCH_runner.json` — escaping strings through
//! [`crate::esc`]. This module reads them back: each function looks up one
//! key in one JSON object (or one line of a pretty-printed file) and
//! returns its scalar value. It is deliberately flat: nesting is not
//! tracked, so the first key with the name wins wherever it sits. Keys
//! are recognised only outside string literals, so a string value that
//! happens to contain `"name":` never matches.
//!
//! Whitespace is allowed on either side of the `:`. Every reader returns
//! `None` for a missing key, a value of another type, or malformed input
//! (an unterminated string, an unknown escape, an out-of-range number),
//! and never panics.

/// The string value of `"name": "…"`, with every escape [`crate::esc`]
/// writes undone (`\"`, `\\`, `\n`, `\r`, `\t`, `\uXXXX`), plus JSON's
/// `\/`, `\b` and `\f`. A `\u` surrogate is rejected as malformed.
pub fn str_field(text: &str, name: &str) -> Option<String> {
    let v = value(text, name)?;
    if !v.starts_with('"') {
        return None;
    }
    string_at(v, 0).map(|(s, _)| s)
}

/// The value of `"name": <digits>` as an exact `u64` (no detour through
/// `f64`, so values above 2^53 survive). A sign, fraction or exponent
/// makes it `None`, as does overflow.
pub fn u64_field(text: &str, name: &str) -> Option<u64> {
    let v = value(text, name)?;
    let end = v.find(|c: char| !c.is_ascii_digit()).unwrap_or(v.len());
    if matches!(v[end..].chars().next(), Some('.' | 'e' | 'E')) {
        return None;
    }
    v[..end].parse().ok()
}

/// The value of `"name": <number>` as an `f64`.
pub fn f64_field(text: &str, name: &str) -> Option<f64> {
    let v = value(text, name)?;
    let end = v
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
        .unwrap_or(v.len());
    v[..end].parse().ok()
}

/// The value of `"name": true|false`.
pub fn bool_field(text: &str, name: &str) -> Option<bool> {
    let v = value(text, name)?;
    match v.split(|c: char| !c.is_ascii_alphabetic()).next()? {
        "true" => Some(true),
        "false" => Some(false),
        _ => None,
    }
}

/// The unparsed text after the first `"name":` key's colon (and any
/// whitespace), for callers that walk an array value themselves.
pub fn value<'a>(text: &'a str, name: &str) -> Option<&'a str> {
    let mut at = 0;
    while let Some(off) = text[at..].find('"') {
        let (s, end) = string_at(text, at + off)?;
        let rest = trim_ws(&text[end..]);
        if let Some(v) = rest.strip_prefix(':') {
            if s == name {
                return Some(trim_ws(v));
            }
        }
        at = end;
    }
    None
}

fn trim_ws(s: &str) -> &str {
    s.trim_start_matches([' ', '\t', '\n', '\r'])
}

/// Decodes the string literal whose opening quote is at byte `open`;
/// returns it with the byte offset just past its closing quote.
fn string_at(text: &str, open: usize) -> Option<(String, usize)> {
    let body = open + 1;
    let mut out = String::new();
    let mut chars = text[body..].char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some((out, body + i + 1)),
            '\\' => out.push(match chars.next()?.1 {
                '"' => '"',
                '\\' => '\\',
                '/' => '/',
                'b' => '\u{8}',
                'f' => '\u{c}',
                'n' => '\n',
                'r' => '\r',
                't' => '\t',
                'u' => {
                    let mut v = 0u32;
                    for _ in 0..4 {
                        v = v * 16 + chars.next()?.1.to_digit(16)?;
                    }
                    char::from_u32(v)?
                }
                _ => return None,
            }),
            c => out.push(c),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::esc;
    use proptest::prelude::*;

    /// Characters that exercise every escape path, plus multi-byte text.
    const ALPHABET: &[char] = &[
        'a', 'Z', '0', ' ', ':', ',', '{', '}', '[', ']', '"', '\\', '/', '\n', '\r', '\t',
        '\u{0}', '\u{1}', '\u{8}', '\u{c}', '\u{1f}', '\u{7f}', 'é', 'λ', '→', '🦀',
    ];

    fn string_from(seed: u64, len: usize) -> String {
        let mut rng = CaseRng::new("json-string", seed);
        (0..len).map(|_| ALPHABET.pick(&mut rng)).collect()
    }

    proptest! {
        #[test]
        fn any_string_survives_esc_with_either_spacing(seed in 0u64..u64::MAX, len in 0usize..48) {
            let s = string_from(seed, len);
            for sep in [":", ": ", " : ", ":\t"] {
                let obj = format!("{{\"k\"{sep}\"{}\", \"next\"{sep}\"{}\"}}", esc(&s), esc(&s));
                prop_assert_eq!(str_field(&obj, "k").as_deref(), Some(s.as_str()));
                prop_assert_eq!(str_field(&obj, "next").as_deref(), Some(s.as_str()));
            }
        }

        #[test]
        fn u64_above_2_pow_53_is_exact(v in (1u64 << 53)..u64::MAX) {
            let obj = format!("{{\"n\": {v}, \"m\":{v}}}");
            prop_assert_eq!(u64_field(&obj, "n"), Some(v));
            prop_assert_eq!(u64_field(&obj, "m"), Some(v));
        }

        #[test]
        fn truncated_input_is_none_and_never_panics(seed in 0u64..u64::MAX, len in 1usize..24) {
            let s = string_from(seed, len);
            let obj = format!(
                "{{\"s\": \"{}\", \"n\": 12345, \"f\": -1.5e3, \"b\": true}}",
                esc(&s)
            );
            let str_end = obj.find(", \"n\"").expect("field separator");
            for (cut, _) in obj.char_indices() {
                let t = &obj[..cut];
                // The string field's closing quote is gone: no value.
                if cut < str_end {
                    prop_assert_eq!(str_field(t, "s"), None);
                }
                let _ = (u64_field(t, "n"), f64_field(t, "f"), bool_field(t, "b"));
            }
        }
    }

    #[test]
    fn escaped_key_with_quotes_round_trips() {
        let key = "machine-a|UaB|Some(FaultConfig { seed: 1 })|\"quoted\"\\back";
        let line = format!(
            "{{\"key\":\"{}\",\"status\":\"ok\",\"msg\":\"tab\\there\"}}",
            esc(key)
        );
        assert_eq!(str_field(&line, "key").as_deref(), Some(key));
        assert_eq!(str_field(&line, "status").as_deref(), Some("ok"));
        assert_eq!(str_field(&line, "msg").as_deref(), Some("tab\there"));
        assert_eq!(str_field(&line, "absent"), None);
    }

    #[test]
    fn numbers_parse() {
        let line = "{\"wall_secs\":1.25,\"n\":-3e2, \"big\": 18446744073709551615}";
        assert_eq!(f64_field(line, "wall_secs"), Some(1.25));
        assert_eq!(f64_field(line, "n"), Some(-300.0));
        assert_eq!(f64_field(line, "absent"), None);
        assert_eq!(u64_field(line, "big"), Some(u64::MAX));
        assert_eq!(
            u64_field(line, "wall_secs"),
            None,
            "a fraction is not a u64"
        );
        assert_eq!(u64_field(line, "n"), None, "a sign is not a u64");
        assert_eq!(u64_field("{\"o\": 18446744073709551616}", "o"), None);
    }

    #[test]
    fn keys_inside_string_values_do_not_match() {
        let line = format!(
            "{{\"msg\": \"{}\", \"status\": \"panicked\"}}",
            esc("\"status\": \"ok\"")
        );
        assert_eq!(str_field(&line, "status").as_deref(), Some("panicked"));
        // A value equal to a key name is a value, not a key.
        assert_eq!(
            str_field("{\"a\": \"b\", \"b\": \"c\"}", "b").as_deref(),
            Some("c")
        );
    }

    #[test]
    fn bools_and_type_mismatches() {
        let line = "{\"t\": true, \"f\":false, \"s\": \"true\", \"x\": truer}";
        assert_eq!(bool_field(line, "t"), Some(true));
        assert_eq!(bool_field(line, "f"), Some(false));
        assert_eq!(bool_field(line, "s"), None);
        assert_eq!(bool_field(line, "x"), None);
        assert_eq!(str_field(line, "t"), None);
        assert_eq!(u64_field(line, "s"), None);
    }

    #[test]
    fn malformed_escapes_are_none() {
        for bad in [
            r#"{"k": "\q"}"#,
            r#"{"k": "\u00zz"}"#,
            r#"{"k": "\ud800"}"#,
            r#"{"k": "\u12"}"#,
        ] {
            assert_eq!(str_field(bad, "k"), None, "{bad}");
        }
        assert_eq!(str_field(r#"{"k": "é\/"}"#, "k").as_deref(), Some("é/"));
    }
}
