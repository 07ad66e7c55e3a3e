//! The JSON the benchmark writes: the result line and the span file. The value
//! type and the parser (for `--check`, `--smoke` and the `BENCHMARK.json`
//! test) are `mako-trace`'s; this module adds the writer it lacks.

pub use mako_trace::schema::{parse_json, Json};
use std::fmt::Write as _;

/// An object of `fields`, in the order given, so output is reproducible.
pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Compact single-line encoding. A non-finite number has no JSON form and is
/// written as `null`, which every reader of the result line rejects.
pub fn encode(value: &Json) -> String {
    let mut out = String::new();
    write(value, &mut out);
    out
}

fn write(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(v) if v.is_finite() => write!(out, "{v}").expect("write to String"),
        Json::Num(_) => out.push_str("null"),
        Json::Str(s) => write_str(s, out),
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(item, out);
            }
            out.push(']');
        }
        Json::Object(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(k, out);
                out.push(':');
                write(v, out);
            }
            out.push('}');
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_the_result_line_shape() {
        let line = encode(&obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(3.0)),
            (
                "metrics",
                obj([(
                    "wall_s",
                    obj([
                        ("value", Json::Num(1.2034)),
                        ("unit", Json::Str("s".into())),
                    ]),
                )]),
            ),
        ]));
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"metrics":{"wall_s":{"value":1.2034,"unit":"s"}}}"#
        );
    }

    #[test]
    fn numbers_keep_every_digit_and_round_trip() {
        for v in [
            0.1 + 0.2,
            1.0e-12,
            123456789.125,
            5e-324,
            1.7976931348623157e308,
        ] {
            assert_eq!(parse_json(&encode(&Json::Num(v))).unwrap(), Json::Num(v));
        }
        assert_eq!(encode(&Json::Num(f64::NAN)), "null");
    }

    #[test]
    fn strings_escape_and_round_trip() {
        let s = "a\"b\\c\nd\te\u{1}é";
        let enc = encode(&Json::Str(s.to_string()));
        assert!(!enc.contains('\n'));
        assert_eq!(parse_json(&enc).unwrap(), Json::Str(s.to_string()));
    }
}
