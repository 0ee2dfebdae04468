//! The one JSON writer behind every machine-readable artifact in the
//! workspace: the facts artifact ([`crate::ImageFacts::to_json`]),
//! `vmlint --json` and the `BENCH_*.json` bench pipelines.
//!
//! Containers are opened with closures, so brackets always balance and the
//! writer, never the caller, places every comma. Output is indented two
//! spaces per level with one member per line. Floating-point numbers are
//! printed at the writer's fixed precision, and non-finite ones as `null`.

use std::fmt::Write as _;

/// Streams one JSON value into a string.
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    precision: usize,
    depth: usize,
    /// The innermost open container has no member yet.
    empty: bool,
    /// A key was just written; the next value belongs to it.
    keyed: bool,
}

impl JsonWriter {
    /// A writer that prints `f64`s with `precision` decimals.
    pub fn new(precision: usize) -> JsonWriter {
        JsonWriter {
            out: String::new(),
            precision,
            depth: 0,
            empty: true,
            keyed: false,
        }
    }

    /// The finished document, newline-terminated.
    pub fn finish(mut self) -> String {
        self.out.push('\n');
        self.out
    }

    /// Writes an object member's key; the next value written is its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.separate();
        escape_into(&mut self.out, key);
        self.out.push_str(": ");
        self.keyed = true;
        self
    }

    /// Writes a value: an object member's value after [`JsonWriter::key`],
    /// else the next array element.
    pub fn value(&mut self, v: impl JsonValue) -> &mut Self {
        v.write_json(self);
        self
    }

    /// Writes the object member `key: v`.
    pub fn field(&mut self, key: &str, v: impl JsonValue) -> &mut Self {
        self.key(key).value(v)
    }

    /// Writes an object whose members `body` writes.
    pub fn object(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.container('{', '}', body)
    }

    /// Writes an array whose elements `body` writes.
    pub fn array(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.container('[', ']', body)
    }

    fn container(&mut self, open: char, close: char, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.separate();
        self.out.push(open);
        self.depth += 1;
        self.empty = true;
        body(self);
        debug_assert!(!self.keyed, "a key was written without its value");
        self.depth -= 1;
        if !self.empty {
            self.newline();
        }
        self.out.push(close);
        self.empty = false;
        self
    }

    fn scalar(&mut self, text: &str) {
        self.separate();
        self.out.push_str(text);
    }

    /// Places the separator before a key or value.
    fn separate(&mut self) {
        if std::mem::take(&mut self.keyed) {
            return;
        }
        if !self.empty {
            self.out.push(',');
        }
        if self.depth > 0 {
            self.newline();
        }
        self.empty = false;
    }

    fn newline(&mut self) {
        self.out.push('\n');
        self.out.push_str(&"  ".repeat(self.depth));
    }
}

/// A value [`JsonWriter::value`] can write.
pub trait JsonValue {
    /// Writes `self` as the writer's next value.
    fn write_json(&self, w: &mut JsonWriter);
}

macro_rules! display_values {
    ($($t:ty),*) => {$(
        impl JsonValue for $t {
            fn write_json(&self, w: &mut JsonWriter) {
                w.scalar(&self.to_string());
            }
        }
    )*};
}
display_values!(u16, u32, u64, usize, i32, i64, bool);

/// Fixed to the writer's precision; non-finite is `null`.
impl JsonValue for f64 {
    fn write_json(&self, w: &mut JsonWriter) {
        match self.is_finite() {
            true => w.scalar(&format!("{self:.prec$}", prec = w.precision)),
            false => w.scalar("null"),
        }
    }
}

impl JsonValue for str {
    fn write_json(&self, w: &mut JsonWriter) {
        w.separate();
        escape_into(&mut w.out, self);
    }
}

impl JsonValue for String {
    fn write_json(&self, w: &mut JsonWriter) {
        self.as_str().write_json(w);
    }
}

impl<T: JsonValue + ?Sized> JsonValue for &T {
    fn write_json(&self, w: &mut JsonWriter) {
        (**self).write_json(w);
    }
}

/// `None` is `null`.
impl<T: JsonValue> JsonValue for Option<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            Some(v) => v.write_json(w),
            None => w.scalar("null"),
        }
    }
}

impl<T: JsonValue> JsonValue for [T] {
    fn write_json(&self, w: &mut JsonWriter) {
        w.array(|w| {
            for v in self {
                v.write_json(w);
            }
        });
    }
}

impl<T: JsonValue> JsonValue for Vec<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        self.as_slice().write_json(w);
    }
}

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(precision: usize, v: impl JsonValue) -> String {
        let mut w = JsonWriter::new(precision);
        w.value(v);
        w.finish()
    }

    #[test]
    fn scalars_escape_strings_and_fix_precision() {
        assert_eq!(one(3, "q\"b\\n\nc\u{1}é"), "\"q\\\"b\\\\n\\nc\\u0001é\"\n");
        assert_eq!(one(3, 2.0f64), "2.000\n");
        assert_eq!(one(1, 99.94f64), "99.9\n");
        for null in [f64::NAN, f64::INFINITY, -f64::INFINITY] {
            assert_eq!(one(3, null), "null\n");
        }
        assert_eq!(one(3, None::<u64>), "null\n");
    }

    #[test]
    fn nested_containers_place_every_separator() {
        let mut w = JsonWriter::new(3);
        w.object(|w| {
            w.field("a", 1u32).field("b", [true, false].as_slice());
            w.key("c").object(|_| {});
            w.key("d").array(|w| {
                w.object(|w| {
                    w.field("e", "x");
                });
                w.value(Some(0.5f64));
            });
        });
        assert_eq!(
            w.finish(),
            "{\n  \"a\": 1,\n  \"b\": [\n    true,\n    false\n  ],\n  \"c\": {},\n  \"d\": [\n    {\n      \"e\": \"x\"\n    },\n    0.500\n  ]\n}\n"
        );
    }
}
