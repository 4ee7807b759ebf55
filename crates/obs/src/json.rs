//! The workspace's one JSON layer: a streaming [`Writer`] every artifact
//! renders through, and a minimal [`Value`] + [`parse`] reader the gates
//! load those artifacts back with. Zero dependencies, like the rest of
//! the workspace.
//!
//! Layout rules (they reproduce the committed artifacts byte for byte):
//!
//! * a [`Layout::Block`] container puts each item on its own line,
//!   indented two spaces per nesting level, and its closing bracket on a
//!   line of its own — an empty one renders as `[` newline `]`;
//! * a [`Layout::Inline`] container separates items with `", "` on one
//!   line, and everything nested inside it is inline too;
//! * keys are followed by `": "`; the document ends with one newline.
//!
//! Numbers: integers render exactly; floats either with a fixed number of
//! decimals ([`Writer::fixed`]) or shortest-roundtrip ([`Writer::float`],
//! fully determined by the value's bits). A non-finite float has no JSON
//! spelling, so both render it as `null` — the gates then fail on the
//! `null` where they require a number. Strings go through the single
//! escaper, [`escape_into`].
//!
//! The reader keeps non-negative integer tokens exact (`u64`, so byte
//! counts beyond 2^53 survive), rejects everything outside the JSON grammar
//! (`NaN`, `inf`, trailing commas, raw control characters) with a typed
//! [`ParseError`], and never panics on any input.

use std::fmt::{self, Write as _};

use ParseErrorKind::*;

/// How a container's items are laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One item per line.
    Block,
    /// All items on one line.
    Inline,
}

/// Append `s` to `out` escaped for a JSON string literal (without the
/// surrounding quotes). The only string escaper in the workspace.
pub fn escape_into(out: &mut String, s: &str) {
    if !s.bytes().any(|b| matches!(b, b'"' | b'\\' | 0..=0x1f)) {
        return out.push_str(s); // nearly every key and name
    }
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
}

struct Frame {
    close: char,
    block: bool,
    empty: bool,
}

/// Streaming JSON writer. Open containers with [`Writer::begin_object`]
/// / [`Writer::begin_array`], name object members with [`Writer::key`],
/// close with [`Writer::end`], and take the text with
/// [`Writer::finish`].
#[derive(Default)]
pub struct Writer {
    out: String,
    stack: Vec<Frame>,
    after_key: bool,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    fn indent(&mut self) {
        self.out.push('\n');
        for _ in 0..self.stack.len() {
            self.out.push_str("  ");
        }
    }

    /// Position the output for the next item of the open container.
    fn item(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        let Some(top) = self.stack.last_mut() else {
            return;
        };
        let (block, first) = (top.block, std::mem::take(&mut top.empty));
        if !first {
            self.out.push(',');
        }
        if block {
            self.indent();
        } else if !first {
            self.out.push(' ');
        }
    }

    fn begin(&mut self, open: char, close: char, layout: Layout) {
        self.item();
        self.out.push(open);
        let block = layout == Layout::Block && self.stack.last().is_none_or(|f| f.block);
        self.stack.push(Frame {
            close,
            block,
            empty: true,
        });
    }

    /// Open an object as the next item.
    pub fn begin_object(&mut self, layout: Layout) {
        self.begin('{', '}', layout);
    }

    /// Open an array as the next item.
    pub fn begin_array(&mut self, layout: Layout) {
        self.begin('[', ']', layout);
    }

    /// Close the innermost open container.
    ///
    /// # Panics
    /// When no container is open.
    pub fn end(&mut self) {
        let frame = self
            .stack
            .pop()
            .expect("json::Writer::end without an open container");
        if frame.block {
            self.indent();
        }
        self.out.push(frame.close);
        if self.stack.is_empty() {
            self.out.push('\n');
        }
    }

    /// Name the next member of the open object; follow with its value.
    pub fn key(&mut self, name: &str) -> &mut Self {
        self.item();
        self.out.push('"');
        escape_into(&mut self.out, name);
        self.out.push_str("\": ");
        self.after_key = true;
        self
    }

    /// A string value.
    pub fn string(&mut self, v: &str) {
        self.item();
        self.out.push('"');
        escape_into(&mut self.out, v);
        self.out.push('"');
    }

    /// An unsigned integer, rendered exactly.
    pub fn uint(&mut self, v: u64) {
        self.item();
        let _ = write!(self.out, "{v}");
    }

    /// `true` / `false`.
    pub fn bool(&mut self, v: bool) {
        self.item();
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// `null`.
    pub fn null(&mut self) {
        self.item();
        self.out.push_str("null");
    }

    /// A float with exactly `decimals` fractional digits; `null` when
    /// not finite.
    pub fn fixed(&mut self, v: f64, decimals: usize) {
        self.item();
        if v.is_finite() {
            let _ = write!(self.out, "{v:.decimals$}");
        } else {
            self.out.push_str("null");
        }
    }

    /// [`Writer::fixed`] for a statistic that may be undefined: `None`
    /// is `null`.
    pub fn opt_fixed(&mut self, v: Option<f64>, decimals: usize) {
        self.fixed(v.unwrap_or(f64::NAN), decimals);
    }

    /// A float in shortest-roundtrip form; `null` when not finite.
    pub fn float(&mut self, v: f64) {
        self.item();
        if v.is_finite() {
            let _ = write!(self.out, "{v:?}");
        } else {
            self.out.push_str("null");
        }
    }

    /// A whole [`Value`], containers inline.
    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.null(),
            Value::Bool(b) => self.bool(*b),
            Value::UInt(n) => self.uint(*n),
            Value::Float(f) => self.float(*f),
            Value::Str(s) => self.string(s),
            Value::Array(items) => {
                self.begin_array(Layout::Inline);
                for item in items {
                    self.value(item);
                }
                self.end();
            }
            Value::Object(members) => self.members(members),
        }
    }

    /// An inline object of `(key, value)` members.
    pub fn members<K: AsRef<str>>(&mut self, members: &[(K, Value)]) {
        self.begin_object(Layout::Inline);
        for (k, v) in members {
            self.key(k.as_ref()).value(v);
        }
        self.end();
    }

    /// The rendered text.
    ///
    /// # Panics
    /// When a container is still open.
    pub fn finish(self) -> String {
        assert!(
            self.stack.is_empty(),
            "json::Writer::finish with an open container"
        );
        self.out
    }
}

/// A parsed JSON value. Objects keep their members in document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer token that fits `u64`, kept exact.
    UInt(u64),
    /// Any other number.
    Float(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, members in document order.
    Object(Vec<(String, Value)>),
}

/// Object members that select an array item by value in [`Value::at`].
const SELECTORS: [&str; 2] = ["id", "label"];

impl Value {
    /// Member `key` of an object (the first, if repeated).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Follow a `.`-separated path of object keys and array selectors. In
    /// an array a numeric segment is an index; any other picks the one item
    /// whose first cell (an array row) or `id` / `label` member (an object)
    /// is that string, and none when no item or several match.
    pub fn at(&self, path: &str) -> Option<&Value> {
        path.split('.').try_fold(self, |v, key| match v {
            Value::Array(items) => match key.parse::<usize>() {
                Ok(i) => items.get(i),
                Err(_) => {
                    let mut hits = items.iter().filter(|item| match item {
                        Value::Array(cells) => cells.first().and_then(Value::as_str) == Some(key),
                        _ => SELECTORS
                            .iter()
                            .any(|k| item.get(k).and_then(Value::as_str) == Some(key)),
                    });
                    let hit = hits.next()?;
                    hits.next().is_none().then_some(hit)
                }
            },
            _ => v.get(key),
        })
    }

    /// Any number, as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::UInt(n) => Some(n as f64),
            Value::Float(f) => Some(f),
            _ => None,
        }
    }

    /// An exact non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::UInt(n) => Some(n),
            _ => None,
        }
    }

    /// A string's contents.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// An array's items.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// An object's members, in document order.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }
}

/// Inline JSON, as [`Writer::value`] renders it.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut w = Writer::new();
        w.value(self);
        f.write_str(w.finish().trim_end())
    }
}

/// Why [`parse`] rejected its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Input ended inside a value.
    UnexpectedEnd,
    /// A character that cannot start or continue a value here: `NaN`,
    /// `inf`, a bare word, a missing `:`, text after the document.
    UnexpectedChar,
    /// A `,` directly before `]` or `}`.
    TrailingComma,
    /// A string with no closing quote.
    UnterminatedString,
    /// A raw control character or a malformed `\` escape in a string.
    InvalidString,
    /// A number token outside the JSON grammar or beyond `f64` range.
    InvalidNumber,
    /// Nesting deeper than [`MAX_DEPTH`].
    TooDeep,
}

/// A typed parse failure with the byte offset it was detected at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub kind: ParseErrorKind,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {:?}", self.offset, self.kind)
    }
}

impl std::error::Error for ParseError {}

/// Deepest container nesting [`parse`] accepts; bounds its recursion so
/// hostile input cannot overflow the stack.
pub const MAX_DEPTH: usize = 128;

/// Parse one JSON document.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    match p.next_token() {
        Err(_) => Ok(value),
        Ok(_) => Err(p.err(UnexpectedChar)),
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, kind: ParseErrorKind) -> ParseError {
        let offset = self.pos;
        ParseError { kind, offset }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// The next non-whitespace byte (not consumed), or `UnexpectedEnd`.
    fn next_token(&mut self) -> Result<u8, ParseError> {
        while matches!(self.peek(), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
        self.peek().ok_or(self.err(UnexpectedEnd))
    }

    /// Consume `text` if the input continues with it.
    fn eat(&mut self, text: &str) -> bool {
        let found = self.text[self.pos..].starts_with(text);
        self.pos += if found { text.len() } else { 0 };
        found
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        match self.next_token()? {
            b'{' | b'[' if depth >= MAX_DEPTH => Err(self.err(TooDeep)),
            b'{' => self
                .items(b'}', |p| {
                    let key = p.string()?;
                    if p.next_token()? != b':' {
                        return Err(p.err(UnexpectedChar));
                    }
                    p.pos += 1;
                    Ok((key, p.value(depth + 1)?))
                })
                .map(Value::Object),
            b'[' => self.items(b']', |p| p.value(depth + 1)).map(Value::Array),
            b'"' => self.string().map(Value::Str),
            b'-' | b'0'..=b'9' => self.number(),
            _ if self.eat("true") => Ok(Value::Bool(true)),
            _ if self.eat("false") => Ok(Value::Bool(false)),
            _ if self.eat("null") => Ok(Value::Null),
            _ => Err(self.err(UnexpectedChar)),
        }
    }

    /// The comma-separated items of a container up to `close`,
    /// positioned on its opener.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, ParseError>,
    ) -> Result<Vec<T>, ParseError> {
        self.pos += 1;
        let mut items = Vec::new();
        while self.next_token()? != close {
            items.push(item(self)?);
            match self.next_token()? {
                b',' => self.pos += 1,
                c if c == close => break,
                _ => return Err(self.err(UnexpectedChar)),
            }
            if self.next_token()? == close {
                return Err(self.err(TrailingComma));
            }
        }
        self.pos += 1;
        Ok(items)
    }

    /// Four hex digits as one UTF-16 code unit.
    fn hex4(&mut self) -> Result<u16, ParseError> {
        let digits = self.text.get(self.pos..self.pos + 4);
        let digits = digits.filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()));
        let unit = digits.ok_or(self.err(InvalidString))?;
        self.pos += 4;
        Ok(u16::from_str_radix(unit, 16).expect("four hex digits"))
    }

    /// A string, positioned on its opening quote.
    fn string(&mut self) -> Result<String, ParseError> {
        if self.peek() != Some(b'"') {
            return Err(self.err(UnexpectedChar));
        }
        let unterminated = self.err(UnterminatedString);
        self.pos += 1;
        let mut out = String::new();
        loop {
            let run = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\' | 0..=0x1f)) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            let stop = self.peek().ok_or(unterminated)?;
            self.pos += 1;
            match stop {
                b'"' => return Ok(out),
                b'\\' => {}
                _ => return Err(self.err(InvalidString)),
            }
            let escape = self.peek().ok_or(unterminated)?;
            self.pos += 1;
            out.push(match escape {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => {
                    // One code unit, or a surrogate pair of two.
                    let mut units = vec![self.hex4()?];
                    if (0xD800..0xDC00).contains(&units[0]) && self.eat("\\u") {
                        units.push(self.hex4()?);
                    }
                    let decoded: Result<String, _> = char::decode_utf16(units).collect();
                    out.push_str(&decoded.map_err(|_| self.err(InvalidString))?);
                    continue;
                }
                _ => return Err(self.err(InvalidString)),
            });
        }
    }

    /// A number, positioned on its first character. Rust's float parser
    /// accepts a superset of JSON (`1.`, `-.5`, `01`), so the shape of the
    /// integer part and of every fraction is checked first.
    fn number(&mut self) -> Result<Value, ParseError> {
        let bad = self.err(InvalidNumber);
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let token = &self.text[start..self.pos];
        let magnitude = token.strip_prefix('-').unwrap_or(token);
        let int_part = magnitude.split(['.', 'e', 'E']).next().unwrap_or("");
        let digit_first = |s: &str| s.starts_with(|c: char| c.is_ascii_digit());
        if !int_part.bytes().all(|b| b.is_ascii_digit())
            || !digit_first(int_part)
            || (int_part.len() > 1 && int_part.starts_with('0'))
            || !magnitude.split('.').skip(1).all(digit_first)
        {
            return Err(bad);
        }
        if let Ok(n) = token.parse::<u64>() {
            return Ok(Value::UInt(n));
        }
        match token.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Value::Float(f)),
            _ => Err(bad),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_and_inline_layouts_render_as_documented() {
        let mut w = Writer::new();
        w.begin_object(Layout::Block);
        w.key("name").string("a\"b");
        w.key("inline").begin_object(Layout::Inline);
        w.key("n").uint(3);
        w.key("list").begin_array(Layout::Block); // inline parent wins
        w.fixed(1.0, 2);
        w.null();
        w.end();
        w.end();
        w.key("rows").begin_array(Layout::Block);
        w.begin_object(Layout::Inline);
        w.key("ok").bool(true);
        w.end();
        w.float(-4.0);
        w.end();
        w.key("empty").begin_array(Layout::Block);
        w.end();
        w.key("nested").begin_object(Layout::Block);
        w.key("x").float(0.5);
        w.end();
        w.end();
        assert_eq!(
            w.finish(),
            "{\n  \"name\": \"a\\\"b\",\n  \"inline\": {\"n\": 3, \"list\": [1.00, null]},\n  \
             \"rows\": [\n    {\"ok\": true},\n    -4.0\n  ],\n  \"empty\": [\n  ],\n  \
             \"nested\": {\n    \"x\": 0.5\n  }\n}\n"
        );
    }

    #[test]
    fn non_finite_floats_render_as_null_in_every_float_method() {
        let mut w = Writer::new();
        w.begin_array(Layout::Inline);
        w.fixed(f64::NAN, 3);
        w.float(f64::INFINITY);
        w.opt_fixed(Some(f64::NEG_INFINITY), 1);
        w.opt_fixed(None, 1);
        w.value(&Value::Float(f64::NAN));
        w.end();
        assert_eq!(w.finish(), "[null, null, null, null, null]\n");
    }

    #[test]
    fn integers_beyond_2_pow_53_parse_exactly() {
        let v = parse("{\"bytes\": 11155200000000, \"max\": 18446744073709551615, \"neg\": -7}")
            .unwrap();
        assert_eq!(
            v.get("bytes").and_then(Value::as_u64),
            Some(11_155_200_000_000)
        );
        assert_eq!(v.get("max"), Some(&Value::UInt(u64::MAX)));
        // Nothing writes a negative integer; one parses as a float, as
        // does one past u64::MAX — still a number, just not an exact one.
        assert_eq!(v.get("neg"), Some(&Value::Float(-7.0)));
        assert!(matches!(parse("18446744073709551616"), Ok(Value::Float(_))));
        assert_eq!(parse("-0"), Ok(Value::Float(-0.0)));
    }

    #[test]
    fn escapes_parse_back_including_surrogate_pairs() {
        let v = parse(r#""a\"b\\c\/\b\f\n\r\t\u0001\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c/\u{8}\u{c}\n\r\t\u{1}é😀"));
    }

    #[test]
    fn malformed_documents_get_typed_errors() {
        use ParseErrorKind::*;
        for (text, kind) in [
            ("", UnexpectedEnd),
            ("[1, 2", UnexpectedEnd),
            ("NaN", UnexpectedChar),
            ("[inf]", UnexpectedChar),
            ("{\"a\": -inf}", InvalidNumber),
            ("{\"a\" 1}", UnexpectedChar),
            ("[1, 2,]", TrailingComma),
            ("{\"a\": 1,}", TrailingComma),
            ("\"abc", UnterminatedString),
            ("\"abc\\", UnterminatedString),
            ("\"a\nb\"", InvalidString),
            ("\"\\x\"", InvalidString),
            ("\"\\ud800\"", InvalidString),
            ("\"\\u12\"", InvalidString),
            ("01", InvalidNumber),
            ("1.", InvalidNumber),
            ("1e", InvalidNumber),
            ("1e999", InvalidNumber),
            ("1 2", UnexpectedChar),
            ("tru", UnexpectedChar),
        ] {
            assert_eq!(parse(text).map_err(|e| e.kind), Err(kind), "{text:?}");
        }
        let deep = "[".repeat(MAX_DEPTH + 1);
        assert_eq!(parse(&deep).map_err(|e| e.kind), Err(TooDeep));
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn path_lookup_follows_object_keys_and_array_indices() {
        let v = parse("{\"a\": {\"b\": [1, 2]}}").unwrap();
        assert_eq!(
            v.at("a.b").and_then(Value::as_array).map(<[Value]>::len),
            Some(2)
        );
        assert_eq!(v.at("a.b.1"), Some(&Value::UInt(2)));
        assert!(v.at("a.b.2").is_none());
        assert!(v.at("a.c").is_none());
        assert!(v.at("a.b.c").is_none());
    }

    #[test]
    fn path_lookup_selects_array_items_by_value() {
        let v = parse(
            "{\"rows\": [[\"csp1\", 1], [\"csp2\", 2]], \
             \"cells\": [{\"id\": \"x\", \"n\": 3}, {\"label\": \"y\", \"n\": 4}], \
             \"twins\": [{\"id\": \"z\"}, {\"label\": \"z\"}], \
             \"named\": [[\"1\", 5], [\"0\", 6]]}",
        )
        .unwrap();
        // An array row is picked by its first cell, an object by `id` or `label`.
        assert_eq!(v.at("rows.csp2.1"), Some(&Value::UInt(2)));
        assert_eq!(v.at("cells.x.n"), Some(&Value::UInt(3)));
        assert_eq!(v.at("cells.y.n"), Some(&Value::UInt(4)));
        // No match, or more than one, is no value.
        assert!(v.at("rows.csp3").is_none());
        assert!(v.at("twins.z").is_none());
        // A numeric segment is an index, even where a first cell reads the same.
        assert_eq!(v.at("named.1.1"), Some(&Value::UInt(6)));
        assert_eq!(v.at("named.0.0").and_then(Value::as_str), Some("1"));
    }
}
