//! The tree's one JSON codec — hand-rolled so the workspace stays
//! dependency-free (no serde).  Every JSON object the tree reads or
//! writes goes through here: the plan file, the journal's frame
//! payloads and the serve wire's frames.
//!
//! The subset is what those three need: objects, arrays, strings, `i128`
//! integers, booleans, and `null`.  Floating-point literals are
//! rejected — every quantity is exact (integers and `num/den`
//! rationals), which is also what makes the encoding canonical and
//! byte-stable.
//!
//! Three parts.  [`parse`] turns text into a [`Json`] tree that borrows
//! from the text: a key or string without escapes is a slice of it, and
//! an object is the list of its fields, so decoding allocates per object
//! and array, not per key and value.  [`Item`] is
//! the **typed field reader** over that tree: required or optional,
//! string / bool / object / array / integer *into the caller's integer
//! type*.  An absent (or `null`) optional field is `None`; a present
//! field of the wrong type, or an integer outside the target type's
//! range, is a [`FieldError`] naming the key — never a default, never
//! an `as` truncation.  [`ObjWriter`] is the **streaming
//! object writer**: it writes straight into the output `String` (no
//! intermediate tree) in the field order the encoder chooses, in one of
//! two layouts — the plan file's two-space pretty form or the one-line
//! form of the wire and the journal — so encoding the same value twice
//! yields byte-identical text, the property the golden snapshots and
//! the pinned wire bytes hold it to.

use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt::Write as _;

/// A parsed JSON value, borrowing from the text it was parsed from.
/// Decoders take values out of it through [`Item`]'s readers only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (the codec has no floats).
    Int(i128),
    /// A string: a slice of the text, or an owned copy when it held an
    /// escape.
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Json<'a>>),
    /// An object: its fields in document order, every key distinct.
    Obj(Vec<(Cow<'a, str>, Json<'a>)>),
}

/// Keys an object may have before the duplicate check stops scanning
/// the keys before it and keeps a set of them instead.  Building an
/// object of `n` keys costs the same either way at `n` ≈ 46 on a 2-vCPU
/// x86-64 host (the scan 0.3× the set at 16 keys, 0.45× at 32, 1.2× at
/// 56).  The largest object in the ledger's `serve-zipf` and
/// `compile-cold` payloads (frames, journal entries, plans) is a plan's
/// 16 keys, so all of them are scanned.
const SCANNED_KEYS: usize = 32;

/// Where and why a JSON parse failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What the parser expected or found.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage is an error).
pub fn parse(src: &str) -> Result<Json<'_>, JsonError> {
    let mut p = Parser {
        src,
        bytes: src.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the JSON document"));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: msg.into(),
        }
    }

    /// The character at the failure, for a message: the byte there as
    /// a `char` would misreport anything beyond ASCII (`é` as `Ã`).
    fn found(&self) -> char {
        (self.src.get(self.pos..))
            .and_then(|rest| rest.chars().next())
            .unwrap_or(char::REPLACEMENT_CHARACTER)
    }

    fn eof_err(&self) -> JsonError {
        self.err("unexpected end of input (document truncated?)")
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        match self.peek() {
            Some(c) if c == b => {
                self.pos += 1;
                Ok(())
            }
            Some(_) => Err(self.err(format!(
                "expected `{}`, found `{}`",
                b as char,
                self.found()
            ))),
            None => Err(self.eof_err()),
        }
    }

    fn literal(&mut self, text: &str, value: Json<'a>) -> Result<Json<'a>, JsonError> {
        text.bytes().try_for_each(|b| self.expect(b))?;
        Ok(value)
    }

    fn value(&mut self) -> Result<Json<'a>, JsonError> {
        match self.peek() {
            None => Err(self.eof_err()),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err(format!("unexpected character `{}`", self.found()))),
        }
    }

    /// `open`, then comma-separated members each taken by `member`,
    /// then `close`.
    fn members(
        &mut self,
        (open, close): (u8, u8),
        mut member: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.expect(open)?;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            member(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(_) => {
                    let (close, c) = (close as char, self.found());
                    return Err(self.err(format!("expected `,` or `{close}`, found `{c}`")));
                }
                None => return Err(self.eof_err()),
            }
        }
    }

    /// An object, refusing a repeated key once its value is read.  Short
    /// objects compare each key with those before it; past
    /// [`SCANNED_KEYS`] a set of the keys keeps the check linear.
    fn object(&mut self) -> Result<Json<'a>, JsonError> {
        let mut fields: Vec<(Cow<'a, str>, Json<'a>)> = Vec::new();
        let mut seen: HashSet<Cow<'a, str>> = HashSet::new();
        self.members((b'{', b'}'), |p| {
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let val = p.value()?;
            let repeated = if fields.len() < SCANNED_KEYS {
                fields.iter().any(|(k, _)| *k == key)
            } else {
                if seen.is_empty() {
                    seen.extend(fields.iter().map(|(k, _)| k.clone()));
                }
                !seen.insert(key.clone())
            };
            if repeated {
                return Err(p.err(format!("duplicate object key `{key}`")));
            }
            fields.push((key, val));
            Ok(())
        })?;
        Ok(Json::Obj(fields))
    }

    fn array(&mut self) -> Result<Json<'a>, JsonError> {
        let mut out = Vec::new();
        self.members((b'[', b']'), |p| {
            out.push(p.value()?);
            Ok(())
        })?;
        Ok(Json::Arr(out))
    }

    /// A string: the slice of the text between its quotes, or, when it
    /// holds an escape, an owned copy with the escapes decoded.  Each
    /// run of ordinary bytes up to the next `"` or `\` is taken whole:
    /// both are ASCII, so the run ends on a character boundary of the
    /// (already UTF-8) text.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            let stop = |b: &u8| matches!(b, b'"' | b'\\');
            let Some(len) = self.bytes[start..].iter().position(stop) else {
                self.pos = self.bytes.len();
                return Err(self.eof_err());
            };
            let run = &self.src[start..start + len];
            self.pos = start + len + 1;
            if self.bytes[start + len] == b'"' {
                return Ok(match owned {
                    None => Cow::Borrowed(run),
                    Some(mut out) => {
                        out.push_str(run);
                        Cow::Owned(out)
                    }
                });
            }
            let out = owned.get_or_insert_with(|| String::with_capacity(self.quoted_len(start)));
            out.push_str(run);
            match self.peek() {
                None => return Err(self.eof_err()),
                Some(c @ (b'"' | b'\\' | b'/')) => out.push(c as char),
                Some(b'n') => out.push('\n'),
                Some(b't') => out.push('\t'),
                Some(b'r') => out.push('\r'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    if self.pos + 5 > self.bytes.len() {
                        return Err(self.eof_err());
                    }
                    let hex = &self.bytes[self.pos + 1..self.pos + 5];
                    let hex = std::str::from_utf8(hex)
                        .ok()
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .ok_or_else(|| self.err("invalid \\u escape"))?;
                    let c = char::from_u32(hex)
                        .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                    out.push(c);
                    self.pos += 4;
                }
                Some(_) => return Err(self.err(format!("unknown escape `\\{}`", self.found()))),
            }
            self.pos += 1;
        }
    }

    /// The bytes from `from` to the closing quote of the string it is
    /// in (or to the end of the input): no fewer than they decode to, so
    /// a decoded copy sized by them never grows.
    fn quoted_len(&self, from: usize) -> usize {
        let mut escaped = false;
        let rest = &self.bytes[from..];
        let end = rest.iter().position(|&b| {
            let closes = !escaped && b == b'"';
            escaped = !escaped && b == b'\\';
            closes
        });
        end.unwrap_or(rest.len())
    }

    fn number(&mut self) -> Result<Json<'a>, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.err(
                "floating-point literals are not part of the plan schema (use exact \
                 integers or `num/den` rational strings)",
            ));
        }
        let text = &self.src[start..self.pos];
        text.parse::<i128>()
            .map(Json::Int)
            .map_err(|_| self.err(format!("integer `{text}` out of range")))
    }
}

/// What a typed read found wrong with one field.  It names the key, so
/// each caller's own error (`PlanError::{Schema, Certificate,
/// Transform}`, the wire's `ALP0006`, a
/// journal quarantine reason) can say which field to fix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldError {
    /// The offending key (`key[]` for an array's element; empty for the
    /// document itself).
    pub key: String,
    /// What is wrong with it.
    pub problem: String,
}

impl std::fmt::Display for FieldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.key.is_empty() {
            write!(f, "the document {}", self.problem)
        } else {
            write!(f, "`{}` {}", self.key, self.problem)
        }
    }
}

impl std::error::Error for FieldError {}

/// One value met while decoding — the document, a field or an array
/// element — with the key it is reported under.  Its readers are the
/// only way a decoder takes a value out of a [`Json`], and they hold
/// every artifact the tree reads to one rule: an absent (or `null`)
/// optional field is `None`; a value of the wrong type, or an integer
/// outside the caller's integer type, is refused, never defaulted or
/// truncated.
#[derive(Debug, Clone, Copy)]
pub struct Item<'a> {
    key: &'a str,
    element: bool,
    value: &'a Json<'a>,
}

impl<'a> Item<'a> {
    /// The document itself.
    pub fn root(value: &'a Json<'a>) -> Item<'a> {
        Item {
            key: "",
            element: false,
            value,
        }
    }

    /// The error that refuses this value: for the readers below, and for
    /// a caller's reader built on them (a `num/den` rational, an enum
    /// spelled as a string) to refuse what it cannot take.
    pub fn refuse(&self, problem: impl Into<String>) -> FieldError {
        FieldError {
            key: format!("{}{}", self.key, if self.element { "[]" } else { "" }),
            problem: problem.into(),
        }
    }

    /// A string.
    pub fn str(self) -> Result<&'a str, FieldError> {
        match self.value {
            Json::Str(s) => Ok(s),
            _ => Err(self.refuse("must be a string")),
        }
    }

    /// A bool.
    pub fn bool(self) -> Result<bool, FieldError> {
        match self.value {
            Json::Bool(b) => Ok(*b),
            _ => Err(self.refuse("must be a bool")),
        }
    }

    /// An integer that fits `T`.
    pub fn int<T: TryFrom<i128>>(self) -> Result<T, FieldError> {
        let Json::Int(n) = *self.value else {
            return Err(self.refuse("must be an integer"));
        };
        T::try_from(n).map_err(|_| {
            let ty = std::any::type_name::<T>();
            self.refuse(format!("is {n}, outside the range of {ty}"))
        })
    }

    /// An array, each element taken by `read`.
    pub fn list<T>(
        self,
        read: impl FnMut(Item<'a>) -> Result<T, FieldError>,
    ) -> Result<Vec<T>, FieldError> {
        let Json::Arr(items) = self.value else {
            return Err(self.refuse("must be an array"));
        };
        let element = |value| Item {
            key: self.key,
            element: true,
            value,
        };
        items.iter().map(element).map(read).collect()
    }

    /// Field `key` of an object, which must be there, taken by `read`.
    pub fn req<T>(
        self,
        key: &'a str,
        read: impl FnOnce(Item<'a>) -> Result<T, FieldError>,
    ) -> Result<T, FieldError> {
        self.opt(key, read)?.ok_or_else(|| FieldError {
            key: key.to_string(),
            problem: "is missing".to_string(),
        })
    }

    /// Field `key` of an object, or `None` when it does not carry one.
    pub fn opt<T>(
        self,
        key: &'a str,
        read: impl FnOnce(Item<'a>) -> Result<T, FieldError>,
    ) -> Result<Option<T>, FieldError> {
        let Json::Obj(fields) = self.value else {
            return Err(self.refuse("must be an object"));
        };
        match fields.iter().find(|(k, _)| k == key).map(|(_, v)| v) {
            None | Some(Json::Null) => Ok(None),
            Some(value) => read(Item {
                key,
                element: false,
                value,
            })
            .map(Some),
        }
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Write a JSON string literal with escaping: the stretches between
/// escapes are copied whole (every byte that needs one is ASCII, so
/// the cuts fall on character boundaries).
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    let mut copied = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            b'\r' => "\\r",
            0..=0x1f => "\\u",
            _ => continue,
        };
        out.push_str(&s[copied..i]);
        out.push_str(escape);
        if escape == "\\u" {
            let _ = write!(out, "{b:04x}");
        }
        copied = i + 1;
    }
    out.push_str(&s[copied..]);
    out.push('"');
}

/// Streams one object straight into the output text, fields in the
/// order the encoder calls [`field`](ObjWriter::field) — which is what
/// keeps every emitted artifact human-readable *and* byte-deterministic.
/// There are two layouts, and everything nested in an object shares its
/// layout: [`pretty()`], the plan file's (two-space indent, one field a
/// line), and [`line()`], the wire's and the journal's (`", "`-separated,
/// no newline anywhere).
#[derive(Debug)]
pub struct ObjWriter<'o> {
    out: &'o mut String,
    /// Indent of the closing brace in the pretty layout; `None` in the
    /// one-line layout.
    indent: Option<usize>,
    empty: bool,
}

/// The object `fields` writes, in the pretty layout, as the text of a
/// file: newline-terminated.
pub fn pretty(fields: impl FnOnce(&mut ObjWriter<'_>)) -> String {
    // A plan is about a kilobyte, a frame about a hundred bytes: start
    // there instead of doubling up from nothing.
    let mut out = String::with_capacity(1024);
    ObjWriter::write(&mut out, Some(0), fields);
    out.push('\n');
    out
}

/// The object `fields` writes, in the one-line layout.
pub fn line(fields: impl FnOnce(&mut ObjWriter<'_>)) -> String {
    let mut out = String::with_capacity(128);
    ObjWriter::write(&mut out, None, fields);
    out
}

impl ObjWriter<'_> {
    fn write(out: &mut String, indent: Option<usize>, fields: impl FnOnce(&mut ObjWriter<'_>)) {
        out.push('{');
        let mut w = ObjWriter {
            out,
            indent,
            empty: true,
        };
        fields(&mut w);
        let empty = w.empty;
        close(out, indent, empty, '}');
    }

    /// Begin field `key`; the returned writer takes its value.
    pub fn field(&mut self, key: &str) -> ValueWriter<'_> {
        let indent = self.indent.map(|i| i + 1);
        separate(self.out, indent, self.empty);
        self.empty = false;
        // Keys are the encoder's own literals, never input.
        debug_assert!(!key.bytes().any(|b| matches!(b, b'"' | b'\\' | 0..=0x1f)));
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\": ");
        ValueWriter {
            out: self.out,
            indent,
        }
    }

    /// Field `key` when there is a value for it, no field otherwise: how
    /// an encoder says "absent".
    pub fn opt<'s, T>(
        &'s mut self,
        key: &str,
        value: Option<T>,
        write: impl FnOnce(ValueWriter<'s>, T),
    ) {
        if let Some(value) = value {
            write(self.field(key), value);
        }
    }
}

/// What goes between `{`/`[` and the first member, or between two
/// members, the next of which sits at `indent`.
fn separate(out: &mut String, indent: Option<usize>, first: bool) {
    match (indent, first) {
        (Some(_), true) => out.push('\n'),
        (Some(_), false) => out.push_str(",\n"),
        (None, true) => {}
        (None, false) => out.push_str(", "),
    }
    pad(out, indent.unwrap_or(0));
}

/// The closing `}`/`]` at `indent`, on a line of its own when the
/// pretty layout spread members above it.
fn close(out: &mut String, indent: Option<usize>, empty: bool, bracket: char) {
    if let (Some(indent), false) = (indent, empty) {
        out.push('\n');
        pad(out, indent);
    }
    out.push(bracket);
}

/// Takes one value: a field's or an array element's.  The integer
/// writers are bounded like [`Item::int`] reads, so nothing but an
/// integer type fits — the codec has no floats.
#[derive(Debug)]
pub struct ValueWriter<'o> {
    out: &'o mut String,
    /// Indent of the line the value starts on (pretty layout).
    indent: Option<usize>,
}

impl ValueWriter<'_> {
    /// A string.
    pub fn str(self, s: &str) {
        write_string(self.out, s);
    }

    /// An integer.
    pub fn int<T: TryFrom<i128> + std::fmt::Display>(self, n: T) {
        let _ = write!(self.out, "{n}");
    }

    /// A bool.
    pub fn bool(self, b: bool) {
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// `null`.
    pub fn null(self) {
        self.out.push_str("null");
    }

    /// An array of integers, inline (`[1, 2]`) in both layouts.
    pub fn ints<T: TryFrom<i128> + std::fmt::Display>(self, items: impl IntoIterator<Item = T>) {
        self.out.push('[');
        for (i, n) in items.into_iter().enumerate() {
            separate(self.out, None, i == 0);
            let _ = write!(self.out, "{n}");
        }
        self.out.push(']');
    }

    /// An object of the fields `fields` writes.
    pub fn obj(self, fields: impl FnOnce(&mut ObjWriter<'_>)) {
        ObjWriter::write(self.out, self.indent, fields);
    }

    /// An array of objects or arrays, each element written by `write`:
    /// one element a line in the pretty layout.
    pub fn list<T>(
        self,
        items: impl IntoIterator<Item = T>,
        mut write: impl FnMut(ValueWriter<'_>, T),
    ) {
        let indent = self.indent.map(|i| i + 1);
        self.out.push('[');
        let mut empty = true;
        for item in items {
            separate(self.out, indent, empty);
            empty = false;
            let out = &mut *self.out;
            write(ValueWriter { out, indent }, item);
        }
        close(self.out, self.indent, empty, ']');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, -2, 3], "b": {"c": "x\ny", "d": true}, "e": null}"#).unwrap();
        let f = Item::root(&v);
        let a: Vec<i128> = f.req("a", |a| a.list(Item::int)).unwrap();
        assert_eq!(a, [1, -2, 3]);
        assert_eq!(f.req("b", |b| b.req("c", Item::str)), Ok("x\ny"));
        assert_eq!(f.req("b", |b| b.req("d", Item::bool)), Ok(true));
        assert_eq!(f.opt("e", Item::str), Ok(None), "null reads as absent");
    }

    #[test]
    fn truncated_inputs_fail_with_offset() {
        for src in [
            "",
            "{",
            r#"{"a""#,
            r#"{"a": "#,
            r#"{"a": [1, 2"#,
            r#"{"a": "unterminat"#,
            "tru",
        ] {
            let e = parse(src).unwrap_err();
            assert!(
                e.message.contains("end of input") || e.message.contains("expected"),
                "{src:?} -> {e}"
            );
            assert!(e.offset <= src.len());
        }
    }

    #[test]
    fn floats_are_rejected_with_diagnostic() {
        let e = parse(r#"{"x": 1.5}"#).unwrap_err();
        assert!(e.message.contains("floating-point"), "{e}");
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("{} x").is_err());
    }

    /// A character beyond ASCII is named as itself, not as its first
    /// byte read as Latin-1.
    #[test]
    fn non_ascii_is_reported_as_itself() {
        for (doc, offset, message) in [
            ("é", 0, "unexpected character `é`"),
            ("tré", 2, "expected `u`, found `é`"),
            ("[1 é]", 3, "expected `,` or `]`, found `é`"),
            (r#"{"a": 1 —}"#, 8, "expected `,` or `}`, found `—`"),
            (r#""\é""#, 2, "unknown escape `\\é`"),
        ] {
            let e = parse(doc).unwrap_err();
            assert_eq!((e.offset, e.message.as_str()), (offset, message), "{doc}");
        }
    }

    /// A repeated key is refused just past its value, on both sides of
    /// the switch from scanning the earlier keys to keeping a set.
    #[test]
    fn duplicate_keys_rejected() {
        let e = parse(r#"{"a": 1, "a": 2}"#).unwrap_err();
        assert_eq!(
            (e.offset, e.message.as_str()),
            (15, "duplicate object key `a`")
        );
        for n in [1, SCANNED_KEYS - 1, SCANNED_KEYS, SCANNED_KEYS + 1, 40] {
            let fields: String = (0..n).map(|k| format!("\"k{k}\": {k}, ")).collect();
            assert!(parse(&format!("{{{fields}\"last\": 0}}")).is_ok(), "{n}");
            for j in 0..n {
                let doc = format!("{{{fields}\"k{j}\": 0}}");
                let e = parse(&doc).unwrap_err();
                assert_eq!(e.offset, doc.len() - 1, "{n} keys, repeat of k{j}");
                assert_eq!(e.message, format!("duplicate object key `k{j}`"));
            }
        }
    }

    /// The duplicate check is linear in the keys: an object of 100 000
    /// of them, over a mebibyte, parses well inside the watchdog the
    /// suite runs under, and a repeat of its first key placed last is
    /// refused at the same offset, with the same message, as in a short
    /// object.
    #[test]
    fn a_hundred_thousand_keys_parse_and_a_last_duplicate_is_refused() {
        const KEYS: usize = 100_000;
        let fields: String = (0..KEYS).map(|k| format!("\"key{k:06}\": {k}, ")).collect();
        let unique = format!("{{{fields}\"last\": 0}}");
        assert!(unique.len() > 1 << 20);
        let v = parse(&unique).unwrap();
        let f = Item::root(&v);
        assert_eq!(f.req("key099999", Item::int::<u64>), Ok(99_999));
        assert_eq!(f.req("last", Item::int::<u64>), Ok(0));
        let repeated = format!("{{{fields}\"key000000\": 0}}");
        let e = parse(&repeated).unwrap_err();
        assert_eq!(e.offset, repeated.len() - 1);
        assert_eq!(e.message, "duplicate object key `key000000`");
    }

    /// Keys and strings without escapes are slices of the text; one with
    /// an escape is decoded into a copy of its own.
    #[test]
    fn escape_free_strings_are_borrowed_and_escaped_ones_owned() {
        let unicode = format!("{}u00e9", '\\');
        let text = format!(r#"{{"plain": "abc", "esc\"aped": "a\nb", "u": "{unicode}", "e": ""}}"#);
        let v = parse(&text).unwrap();
        let Json::Obj(fields) = &v else {
            panic!("an object");
        };
        let borrowed = |s: &Cow<'_, str>| matches!(s, Cow::Borrowed(_));
        let kinds: Vec<(&str, bool, bool)> = (fields.iter())
            .map(|(k, v)| match v {
                Json::Str(s) => (&**k, borrowed(k), borrowed(s)),
                _ => panic!("a string"),
            })
            .collect();
        let expected = [
            ("plain", true, true),
            ("esc\"aped", false, false),
            ("u", true, false),
            ("e", true, true),
        ];
        assert_eq!(kinds, expected);
        let f = Item::root(&v);
        let values = ["plain", "esc\"aped", "u", "e"].map(|k| f.req(k, Item::str).unwrap());
        assert_eq!(values, ["abc", "a\nb", "é", ""]);
    }

    #[test]
    fn string_escapes_round_trip() {
        let text = "a\"b\\c\nd\u{1}é—\t\r";
        let mut out = String::new();
        write_string(&mut out, text);
        assert_eq!(out, r#""a\"b\\c\nd\u0001é—\t\r""#);
        let back = parse(&out).unwrap();
        assert_eq!(Item::root(&back).str(), Ok(text));
    }

    /// Decode is linear in the document.  A scan that is quadratic in a
    /// string's length takes minutes here, so the watchdog the suite runs
    /// under is the assertion.
    #[test]
    fn a_four_mebibyte_string_parses_to_its_length() {
        const LEN: usize = 4 << 20;
        let plain = format!("{{\"s\": \"{}é\"}}", "x".repeat(LEN - 2));
        let v = parse(&plain).unwrap();
        let s = Item::root(&v).req("s", Item::str).unwrap();
        assert_eq!((s.len(), s.chars().count()), (LEN, LEN - 1));
        let escapes = format!("[\"{}\"]", "\\n".repeat(LEN));
        let v = parse(&escapes).unwrap();
        let lines = Item::root(&v).list(Item::str).unwrap();
        assert_eq!(lines[0].len(), LEN);
        assert!(lines[0].bytes().all(|b| b == b'\n'));
        // A run cut short by the end of the input is still an error, at
        // the end of the input.
        let cut = &plain[..plain.len() / 2];
        assert_eq!(parse(cut).unwrap_err().offset, cut.len());
    }

    #[test]
    fn big_integers_survive() {
        let text = format!("[{}]", i128::MAX);
        let v = parse(&text).unwrap();
        assert_eq!(Item::root(&v).list(Item::int), Ok(vec![i128::MAX]));
    }

    /// The three-row table of DESIGN.md "Codec", one row a block.
    #[test]
    fn absent_is_none_and_mistyped_or_out_of_range_is_refused_by_key() {
        let two_64 = u64::MAX as i128 + 1;
        let text = format!(
            r#"{{"n": 7, "s": "7", "neg": -5, "big": {two_64}, "xs": [1, "2"], "nil": null}}"#
        );
        let v = parse(&text).unwrap();
        let f = Item::root(&v);
        let problem = |e: FieldError| format!("{e}");

        assert_eq!(f.opt("gone", Item::int::<u64>), Ok(None));
        assert_eq!(f.opt("nil", Item::bool), Ok(None));
        assert_eq!(
            problem(f.req("gone", Item::str).unwrap_err()),
            "`gone` is missing"
        );

        assert_eq!(f.req("n", Item::int::<u8>), Ok(7));
        assert_eq!(
            problem(f.opt("s", Item::int::<u64>).unwrap_err()),
            "`s` must be an integer"
        );
        assert_eq!(
            problem(f.req("n", Item::str).unwrap_err()),
            "`n` must be a string"
        );
        assert_eq!(
            problem(f.req("n", Item::bool).unwrap_err()),
            "`n` must be a bool"
        );
        assert_eq!(
            problem(f.req("n", |n| n.opt("k", Item::str)).unwrap_err()),
            "`n` must be an object"
        );
        assert_eq!(
            problem(f.req("n", |n| n.list(Item::int::<i128>)).unwrap_err()),
            "`n` must be an array"
        );
        assert_eq!(
            problem(f.req("xs", |xs| xs.list(Item::int::<i128>)).unwrap_err()),
            "`xs[]` must be an integer"
        );
        assert_eq!(
            problem(Item::root(&v).str().unwrap_err()),
            "the document must be a string"
        );

        assert_eq!(
            problem(f.req("neg", Item::int::<u64>).unwrap_err()),
            "`neg` is -5, outside the range of u64"
        );
        assert_eq!(
            problem(f.req("big", Item::int::<u64>).unwrap_err()),
            "`big` is 18446744073709551616, outside the range of u64"
        );
        assert_eq!(f.req("big", Item::int::<i128>), Ok(two_64));
    }

    fn sample(w: &mut ObjWriter<'_>) {
        w.field("s").str("a\"b");
        w.field("n").int(-3);
        w.field("t").bool(true);
        w.field("z").null();
        w.field("xs").ints([1u64, 2]);
        w.field("none").ints(Vec::<usize>::new());
        w.field("o").obj(|o| o.field("k").int(1u8));
        w.field("e").obj(|_| {});
        w.field("rows")
            .list([[1i128, 0], [0, 1]], |v, row| v.ints(row));
        w.field("objs")
            .list([5usize, 6], |v, n| v.obj(|o| o.field("n").int(n)));
        w.field("nothing").list(Vec::<u8>::new(), |v, n| v.int(n));
    }

    #[test]
    fn the_writer_has_two_layouts_and_both_parse_back() {
        let line = line(sample);
        assert_eq!(
            line,
            r#"{"s": "a\"b", "n": -3, "t": true, "z": null, "xs": [1, 2], "none": [], "o": {"k": 1}, "e": {}, "rows": [[1, 0], [0, 1]], "objs": [{"n": 5}, {"n": 6}], "nothing": []}"#
        );
        let pretty = pretty(sample);
        let expected = r#"{
  "s": "a\"b",
  "n": -3,
  "t": true,
  "z": null,
  "xs": [1, 2],
  "none": [],
  "o": {
    "k": 1
  },
  "e": {},
  "rows": [
    [1, 0],
    [0, 1]
  ],
  "objs": [
    {
      "n": 5
    },
    {
      "n": 6
    }
  ],
  "nothing": []
}
"#;
        assert_eq!(pretty, expected);
        assert_eq!(parse(&line), parse(&pretty));
        assert_eq!(super::pretty(|_| {}), "{}\n");
    }
}
