//! The little JSON this benchmark writes, by hand: the simulator's
//! crates bring no serializer and the benchmark may add no dependency.

use std::fmt::Write as _;

/// `s` as a JSON string literal, quotes included.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `v` as a JSON number with every digit Rust needs to round-trip it.
/// JSON has no NaN or infinity; callers count a non-finite measurement
/// as a failed operation before it gets here, and it prints as 0.
pub fn number(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_owned();
    }
    // `{}` on an f64 never uses exponent notation and never prints a
    // trailing `.`; integral values print without a fraction.
    format!("{v}")
}

/// `{"k": v, ...}` from already-rendered values, in the given order.
pub fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {}", string(k), v))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// `[v, ...]` from already-rendered values.
pub fn array(items: &[String]) -> String {
    format!("[{}]", items.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("plain"), "\"plain\"");
        assert_eq!(string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(string("l1\nl2\tx\r"), "\"l1\\nl2\\tx\\r\"");
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
        // Non-ASCII passes through: JSON text is UTF-8.
        assert_eq!(string("±µ"), "\"±µ\"");
    }

    #[test]
    fn numbers_round_trip_and_stay_finite() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(3.0), "3");
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(f64::INFINITY), "0");
        let v = 0.123_456_789_012_345_68;
        assert_eq!(number(v).parse::<f64>().unwrap().to_bits(), v.to_bits());
        assert!(!number(1e-9).contains('e'));
    }

    #[test]
    fn objects_and_arrays_compose() {
        let o = object(&[
            ("a", number(1.0)),
            ("b", array(&[string("x"), "true".into()])),
        ]);
        assert_eq!(o, "{\"a\": 1, \"b\": [\"x\", true]}");
        assert_eq!(object(&[]), "{}");
        assert_eq!(array(&[]), "[]");
    }
}
