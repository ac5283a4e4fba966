//! Shared JSON-emission helpers for the `BENCH_*.json` writers.
//!
//! Every campaign report (`BENCH_faults.json`, `BENCH_check.json`,
//! `BENCH_analyze.json`) is hand-rolled JSON — the
//! build environment is offline, so no serde. The string-escaping and
//! array-glue logic used to be copy-pasted per writer; it lives here
//! once so the formats cannot drift apart.

/// Escapes a string as a JSON string literal (with the surrounding
/// quotes).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders an optional value as its `Display` form, or `null`.
pub fn json_opt<T: std::fmt::Display>(v: Option<T>) -> String {
    v.map_or("null".to_string(), |v| v.to_string())
}

/// Renders an optional string as an escaped JSON string, or `null`.
pub fn json_opt_str(s: Option<&str>) -> String {
    s.map_or("null".to_string(), json_str)
}

/// Appends a JSON array body: one line per item, comma-separated, no
/// trailing comma. `f` renders each item *without* the line terminator.
pub fn array_rows<T>(out: &mut String, items: &[T], mut f: impl FnMut(&T) -> String) {
    for (i, item) in items.iter().enumerate() {
        out.push_str(&f(item));
        out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn options_render_null() {
        assert_eq!(json_opt(Some(3u64)), "3");
        assert_eq!(json_opt::<u64>(None), "null");
        assert_eq!(json_opt_str(Some("x")), "\"x\"");
        assert_eq!(json_opt_str(None), "null");
    }

    #[test]
    fn array_rows_place_commas_between_lines_only() {
        let mut out = String::new();
        array_rows(&mut out, &[1, 2, 3], |n| format!("    {n}"));
        assert_eq!(out, "    1,\n    2,\n    3\n");
        let mut one = String::new();
        array_rows(&mut one, &[9], |n| format!("{n}"));
        assert_eq!(one, "9\n");
        let mut empty = String::new();
        array_rows(&mut empty, &[] as &[i32], |n| format!("{n}"));
        assert_eq!(empty, "");
    }
}
