//! A small text DSL for writing the paper's loop nests verbatim.
//!
//! ```text
//! doall (i, 101, 200) {
//!   doall (j, 1, 100) {
//!     A[i, j] = B[i+j, i-j-1] + B[i+j+4, i-j+3];
//!   }
//! }
//! ```
//!
//! * `doseq` loops may wrap the outermost `doall` (Fig. 9).
//! * `lhs += rhs;` or an `l$` prefix marks a fine-grain-synchronized
//!   accumulate (Fig. 11 / Appendix A).
//! * Loop bounds are integer literals or named parameters supplied to
//!   [`parse_with_params`].
//! * An optional fourth header argument gives a stride: `doall (i, lo,
//!   hi, s)` visits `lo, lo+s, …`.  The parser normalizes it away by
//!   substituting `i = lo + s·i′` — bounds become `(0, ⌊(hi−lo)/s⌋)`
//!   and every subscript absorbs the scale and offset — so downstream
//!   analyses only ever see the paper's unit-stride canonical form
//!   (§2.1).

use crate::nest::{LoopIndex, LoopNest, Statement};
use crate::refs::{AccessKind, ArrayRef};
use crate::span::{line_col, Span};
use crate::IrError;
use alp_linalg::{IMat, IVec};
use std::collections::HashMap;
use std::iter::repeat_n;

/// Parse failure, with a human-oriented message and source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the source.
    pub offset: usize,
    /// 1-based line of the offset (0 when the position is unknown).
    pub line: usize,
    /// 1-based column of the offset (0 when the position is unknown).
    pub column: usize,
}

impl ParseError {
    /// An error at a byte offset of `src`, with line/column filled in.
    pub fn at(message: impl Into<String>, offset: usize, src: &str) -> Self {
        let offset = offset.min(src.len());
        let (line, column) = line_col(src, offset);
        ParseError {
            message: message.into(),
            offset,
            line,
            column,
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(
                f,
                "parse error at line {}, column {}: {}",
                self.line, self.column, self.message
            )
        } else {
            write!(f, "parse error: {}", self.message)
        }
    }
}

impl std::error::Error for ParseError {}

/// Lossy fallback for IR errors raised outside the parser: no source is
/// available, so the position is unknown.  The parser itself converts
/// [`IrError`] via [`ParseError::at`] with the offending nest's offset.
impl From<IrError> for ParseError {
    fn from(e: IrError) -> Self {
        ParseError {
            message: e.to_string(),
            offset: 0,
            line: 0,
            column: 0,
        }
    }
}

/// Parse a loop nest with no named parameters.
pub fn parse(src: &str) -> Result<LoopNest, ParseError> {
    parse_with_params(src, &HashMap::new())
}

/// Parse a loop nest, resolving named loop bounds (e.g. `N`) through
/// `params`.
pub fn parse_with_params(
    src: &str,
    params: &HashMap<String, i128>,
) -> Result<LoopNest, ParseError> {
    let mut p = Parser::new(src, params);
    let nest = p
        .parse_nest()
        .and_then(|nest| p.expect_eof().map(|()| nest));
    p.finish(nest)
}

/// Parse a **program**: a sequence of loop nests executed one after the
/// other (the multi-phase setting of §4 — e.g. an ADI row sweep followed
/// by a column sweep over the same array).
pub fn parse_program(src: &str) -> Result<Vec<LoopNest>, ParseError> {
    parse_program_with_params(src, &HashMap::new())
}

/// [`parse_program`] with named loop-bound parameters.
pub fn parse_program_with_params(
    src: &str,
    params: &HashMap<String, i128>,
) -> Result<Vec<LoopNest>, ParseError> {
    let mut p = Parser::new(src, params);
    let mut nests = Vec::new();
    let parsed = loop {
        match p.parse_nest() {
            Ok(nest) => nests.push(nest),
            Err(e) => break Err(e),
        }
        if p.tok.is_none() {
            break Ok(());
        }
    };
    p.finish(parsed)?;
    // Cross-nest validation: arrays keep one dimensionality everywhere.
    let mut dims: HashMap<String, usize> = HashMap::new();
    for nest in &nests {
        for r in nest.all_refs() {
            match dims.get(&r.array) {
                Some(&d) if d != r.dim() => {
                    let offset = r.span.map_or(0, |s| s.start);
                    return Err(ParseError::at(
                        format!(
                            "array `{}` used with {} subscripts here, {} elsewhere",
                            r.array,
                            r.dim(),
                            d
                        ),
                        offset,
                        src,
                    ));
                }
                _ => {
                    dims.insert(r.array.clone(), r.dim());
                }
            }
        }
    }
    Ok(nests)
}

/// A token; identifiers borrow their text from the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tok<'a> {
    Ident(&'a str),
    /// A literal of at most 2¹²⁷, which reads as `i128::MIN` and only
    /// where a run of signs negates it ([`Parser::advance`]).
    Int(i128),
    Sym(char),
    PlusEq,
    AccSigil, // `l$`
}

/// The token that starts at or after byte `i` of `src`, with its byte
/// range; `Ok(None)` at the end of the source, `Err(at)` at a byte no
/// token starts with or a literal beyond 2¹²⁷ ([`lex_error`] says
/// which).
fn lex(src: &str, mut i: usize) -> Result<Option<(Tok<'_>, usize, usize)>, usize> {
    let bytes = src.as_bytes();
    while let Some(&b) = bytes.get(i) {
        let mut end = i + 1;
        let tok = match b {
            b' ' | b'\t' | b'\n' | b'\r' => {
                i = end;
                continue;
            }
            b'/' if bytes.get(end) == Some(&b'/') => {
                while bytes.get(i).is_some_and(|&b| b != b'\n') {
                    i += 1;
                }
                continue;
            }
            b'0'..=b'9' => {
                // Up to 2¹²⁷ (`-i128::MIN`), whose last digit is 8.
                const TENTH: u128 = i128::MAX as u128 / 10;
                let mut n = u128::from(b - b'0');
                while let Some(&d @ b'0'..=b'9') = bytes.get(end) {
                    let d = d - b'0';
                    if n > TENTH || (n == TENTH && d > 8) {
                        return Err(i);
                    }
                    n = n * 10 + u128::from(d);
                    end += 1;
                }
                Tok::Int(n as i128)
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                while bytes
                    .get(end)
                    .is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_')
                {
                    end += 1;
                }
                // `l$` accumulate sigil.
                if end == i + 1 && b == b'l' && bytes.get(end) == Some(&b'$') {
                    end += 1;
                    Tok::AccSigil
                } else {
                    Tok::Ident(&src[i..end])
                }
            }
            b'+' if bytes.get(end) == Some(&b'=') => {
                end += 1;
                Tok::PlusEq
            }
            b'(' | b')' | b'{' | b'}' | b'[' | b']' | b',' | b';' | b'=' | b'+' | b'-' | b'*' => {
                Tok::Sym(char::from(b))
            }
            _ => return Err(i),
        };
        return Ok(Some((tok, i, end)));
    }
    Ok(None)
}

/// The error of a lexer that stopped at byte `at`.
#[cold]
fn lex_error(src: &str, at: usize) -> ParseError {
    if src.as_bytes()[at].is_ascii_digit() {
        return ParseError::at("integer literal out of range", at, src);
    }
    // Every token is ASCII, so `at` is on a character boundary.
    let c = src[at..].chars().next().expect("a byte starts here");
    ParseError::at(format!("unexpected character `{c}`"), at, src)
}

/// A recursive-descent parser over tokens lexed on demand, one token
/// of lookahead.
struct Parser<'a> {
    src: &'a str,
    params: &'a HashMap<String, i128>,
    /// The lookahead token; `None` at the end of the source or where
    /// the lexer stopped.
    tok: Option<Tok<'a>>,
    /// Byte offset of `tok` (the source length when there is none).
    at: usize,
    /// Where the lexer resumes: one past `tok`.
    next: usize,
    /// One past the most recently bumped token.
    prev_end: usize,
    /// Where the lexer stopped at a byte no token starts with, or at a
    /// literal beyond `i128`.
    stopped: Option<usize>,
    /// The run of `+`/`-` tokens that ends at `tok` negates.
    negates: bool,
    /// The reference being read, subscript by subscript: its column of
    /// `G` (`l` coefficients), then its entry of `ā`.
    columns: Vec<i128>,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str, params: &'a HashMap<String, i128>) -> Self {
        let mut p = Parser {
            src,
            params,
            tok: None,
            at: 0,
            next: 0,
            prev_end: 0,
            stopped: None,
            negates: false,
            // Room for a reference's 64 numbers, so that the count of
            // blocks a parse allocates does not grow with the rank.
            columns: Vec::with_capacity(64),
        };
        p.advance();
        p
    }

    /// Lex the next lookahead token.  A literal of 2¹²⁷ is beyond
    /// `i128` unless the run of signs before it negates it, so the lexer
    /// stops there as it stops at a larger one: its error still
    /// outranks every parse error.
    fn advance(&mut self) {
        let negated = self.negates;
        match lex(self.src, self.next) {
            Ok(Some((Tok::Int(i128::MIN), at, _))) if !negated => self.stop(at),
            Ok(Some((tok, at, end))) => {
                self.negates = match tok {
                    Tok::Sym('-') => !negated,
                    Tok::Sym('+') => negated,
                    _ => false,
                };
                (self.tok, self.at, self.next) = (Some(tok), at, end);
            }
            Ok(None) => (self.tok, self.at) = (None, self.src.len()),
            Err(at) => self.stop(at),
        }
    }

    /// The lexer stops at byte `at`: no more tokens.
    fn stop(&mut self, at: usize) {
        (self.tok, self.at, self.stopped) = (None, self.src.len(), Some(at));
    }

    /// `result`, unless the lexer stops somewhere in the source: that
    /// error outranks any other, wherever the parser stopped, so lex on
    /// to the end first.
    fn finish<T>(mut self, result: Result<T, ParseError>) -> Result<T, ParseError> {
        while self.tok.is_some() {
            self.advance();
        }
        match self.stopped {
            Some(at) => Err(lex_error(self.src, at)),
            None => result,
        }
    }

    fn bump(&mut self) {
        self.prev_end = self.next;
        self.advance();
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError::at(msg, self.at, self.src))
    }

    fn expect_sym(&mut self, c: char) -> Result<(), ParseError> {
        match self.tok {
            Some(Tok::Sym(s)) if s == c => {
                self.bump();
                Ok(())
            }
            Some(_) => {
                let found = &self.src[self.at..self.next];
                self.err(format!("expected `{c}`, found `{found}`"))
            }
            None => self.err(format!("expected `{c}`, found end of input")),
        }
    }

    fn expect_eof(&self) -> Result<(), ParseError> {
        match self.tok {
            None => Ok(()),
            Some(_) => self.err("trailing input after loop nest"),
        }
    }

    fn parse_nest(&mut self) -> Result<LoopNest, ParseError> {
        let nest_start = self.at;
        let mut seq_loops: Vec<LoopIndex> = Vec::new();
        let mut loops: Vec<LoopIndex> = Vec::new();
        // `(level, stride)` of each header with a stride other than 1.
        let mut seq_strides: Vec<(usize, i128)> = Vec::new();
        let mut strides: Vec<(usize, i128)> = Vec::new();
        // Headers: doseq* doall+
        loop {
            let seq = match self.tok {
                Some(Tok::Ident("doseq")) => true,
                Some(Tok::Ident("doall")) => false,
                _ => break,
            };
            if seq && !loops.is_empty() {
                return self.err("doseq must enclose all doall loops");
            }
            self.bump();
            let (l, s) = self.parse_header()?;
            // Reject shadowed indices at the duplicate's own position.
            if seq_loops.iter().chain(&loops).any(|e| e.name == l.name) {
                return Err(ParseError::at(
                    format!("index `{}` is declared by more than one loop", l.name),
                    l.span.map_or(nest_start, |s| s.start),
                    self.src,
                ));
            }
            let (levels, level_strides) = if seq {
                (&mut seq_loops, &mut seq_strides)
            } else {
                (&mut loops, &mut strides)
            };
            if s != 1 {
                level_strides.push((levels.len(), s));
            }
            levels.push(l);
        }
        if loops.is_empty() {
            return self.err("expected at least one doall loop");
        }
        // Body statements.
        let mut body = Vec::new();
        while !matches!(self.tok, Some(Tok::Sym('}')) | None) {
            body.push(self.parse_statement(&loops)?);
        }
        for _ in 0..seq_loops.len() + loops.len() {
            self.expect_sym('}')?;
        }
        // Normalize non-unit strides: substituting `i = lo + s·i′` turns
        // `doall (i, lo, hi, s)` into the unit-stride `i′ ∈ [0,
        // ⌊(hi−lo)/s⌋]` with each subscript coefficient scaled by `s`
        // and `coeff·lo` folded into the constant — the touched element
        // set is unchanged.
        let overflow = |at| ParseError::at("stride normalization overflows i128", at, self.src);
        for (k, s) in strides {
            let l = &mut loops[k];
            let at = l.span.map_or(nest_start, |sp| sp.start);
            let lo = l.lower;
            l.upper = l
                .upper
                .checked_sub(lo)
                .map(|w| w.div_euclid(s))
                .ok_or_else(|| overflow(at))?;
            l.lower = 0;
            for st in &mut body {
                for r in std::iter::once(&mut st.lhs).chain(st.rhs.iter_mut()) {
                    let at = r.span.map_or(at, |sp| sp.start);
                    for col in 0..r.dim() {
                        let c = r.g[(k, col)];
                        r.a[col] = c
                            .checked_mul(lo)
                            .and_then(|t| r.a[col].checked_add(t))
                            .ok_or_else(|| overflow(at))?;
                        r.g[(k, col)] = c.checked_mul(s).ok_or_else(|| overflow(at))?;
                    }
                }
            }
        }
        // Sequential indices cannot appear in subscripts, so a strided
        // doseq only renormalizes its trip count.
        for (k, s) in seq_strides {
            let l = &mut seq_loops[k];
            let at = l.span.map_or(nest_start, |sp| sp.start);
            l.upper = l
                .upper
                .checked_sub(l.lower)
                .map(|w| w.div_euclid(s))
                .ok_or_else(|| overflow(at))?;
            l.lower = 0;
        }
        LoopNest::with_seq(seq_loops, loops, body)
            .map_err(|e| ParseError::at(e.to_string(), nest_start, self.src))
    }

    /// `(name, lo, hi[, step]) {` — returns the level plus its stride
    /// (`1` when the optional fourth argument is omitted).
    fn parse_header(&mut self) -> Result<(LoopIndex, i128), ParseError> {
        self.expect_sym('(')?;
        let Some(Tok::Ident(name)) = self.tok else {
            return self.err("expected loop index name");
        };
        let name_span = Span::new(self.at, self.next);
        self.bump();
        self.expect_sym(',')?;
        let lower = self.parse_bound()?;
        self.expect_sym(',')?;
        let upper = self.parse_bound()?;
        let stride = if self.tok == Some(Tok::Sym(',')) {
            self.bump();
            let at = self.at;
            let s = self.parse_bound()?;
            if s < 1 {
                return Err(ParseError::at(
                    format!("loop stride must be at least 1, got {s}"),
                    at,
                    self.src,
                ));
            }
            s
        } else {
            1
        };
        self.expect_sym(')')?;
        self.expect_sym('{')?;
        Ok((
            LoopIndex::new(name, lower, upper).with_span(name_span),
            stride,
        ))
    }

    /// Integer literal, optionally negated, or a named parameter.
    fn parse_bound(&mut self) -> Result<i128, ParseError> {
        let value = match self.tok {
            Some(Tok::Int(n)) => n,
            Some(Tok::Sym('-')) => {
                self.bump();
                match self.tok {
                    // 2¹²⁷ reads as `i128::MIN`, its own negation.
                    Some(Tok::Int(n)) => n.wrapping_neg(),
                    _ => return self.err("expected integer after `-`"),
                }
            }
            Some(Tok::Ident(name)) => match self.params.get(name) {
                Some(&v) => v,
                None => return self.err(format!("unbound loop-bound parameter `{name}`")),
            },
            _ => return self.err("expected loop bound"),
        };
        self.bump();
        Ok(value)
    }

    fn parse_statement(&mut self, loops: &[LoopIndex]) -> Result<Statement, ParseError> {
        let stmt_start = self.at;
        let mut lhs = self.parse_ref(loops, AccessKind::Write)?;
        let acc = match self.tok {
            Some(Tok::Sym('=')) => false,
            Some(Tok::PlusEq) => true,
            _ => return self.err("expected `=` or `+=`"),
        };
        self.bump();
        if acc {
            lhs.kind = AccessKind::Accumulate;
        }
        let mut rhs = Vec::new();
        loop {
            // term: signs (irrelevant to the reference structure), then
            // int [ '*' ref ] | ref
            while let Some(Tok::Sym('+' | '-')) = self.tok {
                self.bump();
            }
            match self.tok {
                Some(Tok::Int(_)) => {
                    self.bump();
                    if self.tok == Some(Tok::Sym('*')) {
                        self.bump();
                        rhs.push(self.parse_ref(loops, AccessKind::Read)?);
                    }
                    // else: pure constant term, no reference
                }
                Some(Tok::Ident(_) | Tok::AccSigil) => {
                    rhs.push(self.parse_ref(loops, AccessKind::Read)?);
                }
                _ => return self.err("expected term on right-hand side"),
            }
            match self.tok {
                Some(Tok::Sym('+' | '-')) => continue,
                Some(Tok::Sym(';')) => {
                    self.bump();
                    break;
                }
                Some(Tok::Sym('*')) => return self.err("unexpected `*`"),
                _ => return self.err("expected `+`, `-` or `;`"),
            }
        }
        // `lhs += rhs` is sugar for `l$lhs = l$lhs + rhs`: make the
        // implicit self-read explicit so both spellings yield one IR.
        let mut st = Statement::new(lhs, rhs);
        if acc && !st.reads_its_target() {
            st.rhs.insert(0, st.lhs.clone());
        }
        Ok(st.with_span(Span::new(stmt_start, self.prev_end)))
    }

    /// `[l$]Name[affine, affine, …]`
    fn parse_ref(
        &mut self,
        loops: &[LoopIndex],
        default_kind: AccessKind,
    ) -> Result<ArrayRef, ParseError> {
        let ref_start = self.at;
        let kind = if self.tok == Some(Tok::AccSigil) {
            self.bump();
            AccessKind::Accumulate
        } else {
            default_kind
        };
        let Some(Tok::Ident(array)) = self.tok else {
            return self.err("expected array name");
        };
        self.bump();
        self.expect_sym('[')?;
        self.columns.clear();
        loop {
            self.parse_affine(loops)?;
            match self.tok {
                Some(Tok::Sym(',')) => self.bump(),
                Some(Tok::Sym(']')) => {
                    self.bump();
                    break;
                }
                _ => return self.err("expected `,` or `]` in subscripts"),
            }
        }
        // Subscript `k` is column `k` of `G` and entry `k` of `ā`.
        let (l, subs) = (loops.len(), &self.columns);
        let d = subs.len() / (l + 1);
        let mut g = Vec::with_capacity(l * d);
        for r in 0..l {
            g.extend((0..d).map(|k| subs[k * (l + 1) + r]));
        }
        let a = IVec((0..d).map(|k| subs[k * (l + 1) + l]).collect());
        let g = IMat::from_vec(l, d, g);
        let span = Span::new(ref_start, self.prev_end);
        Ok(ArrayRef::new(array, g, a, kind).with_span(span))
    }

    /// One subscript, a sum of `[int *] index` and integer terms with
    /// `+`/`-` signs, appended to `columns`.
    fn parse_affine(&mut self, loops: &[LoopIndex]) -> Result<(), ParseError> {
        let at = self.columns.len();
        self.columns.extend(repeat_n(0, loops.len() + 1));
        loop {
            let mut negated = false;
            loop {
                match self.tok {
                    Some(Tok::Sym('+')) => self.bump(),
                    Some(Tok::Sym('-')) => {
                        negated = !negated;
                        self.bump();
                    }
                    _ => break,
                }
            }
            let term_start = self.at;
            // The coefficient and the index it scales (`None`: a constant).
            let (n, index) = match self.tok {
                Some(Tok::Int(n)) => {
                    self.bump();
                    if self.tok == Some(Tok::Sym('*')) {
                        self.bump();
                        let Some(Tok::Ident(id)) = self.tok else {
                            return self.err("expected index after `*`");
                        };
                        self.bump();
                        (n, Some(id))
                    } else {
                        (n, None)
                    }
                }
                Some(Tok::Ident(id)) => {
                    self.bump();
                    (1, Some(id))
                }
                _ => return self.err("expected subscript term"),
            };
            let slot = match index {
                Some(id) => self.index_of(id, loops)?,
                None => loops.len(),
            };
            let slot = &mut self.columns[at + slot];
            // A literal is at most `i128::MAX`, or 2¹²⁷ negated (which
            // reads as `i128::MIN`, its own negation), so only the sum
            // can overflow.
            let term = if negated { n.wrapping_neg() } else { n };
            *slot = slot.checked_add(term).ok_or_else(|| {
                ParseError::at("affine subscript term overflows i128", term_start, self.src)
            })?;
            if !matches!(self.tok, Some(Tok::Sym('+' | '-'))) {
                return Ok(());
            }
        }
    }

    /// The position of index `id`; reported at the token after it.
    fn index_of(&self, id: &str, loops: &[LoopIndex]) -> Result<usize, ParseError> {
        match loops.iter().position(|l| l.name == id) {
            Some(k) => Ok(k),
            None => match self.params.get(id) {
                // A parameter in a subscript acts as a constant — not
                // supported (would make the offset symbolic).
                Some(_) => self.err(format!("parameter `{id}` cannot appear in a subscript")),
                None => self.err(format!("unknown index `{id}`")),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_example2() {
        let n = parse(
            "doall (i, 101, 200) {
               doall (j, 1, 100) {
                 A[i,j] = B[i+j, i-j-1] + B[i+j+4, i-j+3];
               }
             }",
        )
        .unwrap();
        assert_eq!(n.depth(), 2);
        assert_eq!(n.iteration_count(), 10_000);
        let refs = n.all_refs();
        assert_eq!(refs.len(), 3);
        let b1 = refs[1];
        assert_eq!(b1.g_matrix(), &IMat::from_rows(&[&[1, 1], &[1, -1]]));
        assert_eq!(b1.offset(), &IVec::new(&[0, -1]));
        let b2 = refs[2];
        assert_eq!(b2.offset(), &IVec::new(&[4, 3]));
    }

    #[test]
    fn parses_example8_with_params() {
        let mut params = HashMap::new();
        params.insert("N".to_string(), 32i128);
        let n = parse_with_params(
            "doall (i, 1, N) { doall (j, 1, N) { doall (k, 1, N) {
               A[i,j,k] = B[i-1,j,k+1] + B[i,j+1,k] + B[i+1,j-2,k-3];
             } } }",
            &params,
        )
        .unwrap();
        assert_eq!(n.depth(), 3);
        assert_eq!(n.iteration_count(), 32 * 32 * 32);
        let b = &n.body[0].rhs[0];
        assert_eq!(b.g_matrix(), &IMat::identity(3));
        assert_eq!(b.offset(), &IVec::new(&[-1, 0, 1]));
    }

    #[test]
    fn parses_doseq_wrapper() {
        let n = parse(
            "doseq (t, 1, 10) { doall (i, 1, 4) {
               A[i] = A[i] + B[i];
             } }",
        )
        .unwrap();
        assert_eq!(n.seq_loops.len(), 1);
        assert_eq!(n.seq_repetitions(), 10);
        assert_eq!(n.depth(), 1);
    }

    #[test]
    fn parses_accumulate_matmul() {
        // Fig. 11: l$C[i,j] = l$C[i,j] + A[i,k] + B[k,j]
        let n = parse(
            "doall (i, 1, 8) { doall (j, 1, 8) { doall (k, 1, 8) {
               l$C[i,j] = l$C[i,j] + A[i,k] * B[k,j];
             } } }",
        );
        // `*` between refs is not part of the sum grammar; use `+` form.
        assert!(n.is_err());
        let n = parse(
            "doall (i, 1, 8) { doall (j, 1, 8) { doall (k, 1, 8) {
               l$C[i,j] = l$C[i,j] + A[i,k] + B[k,j];
             } } }",
        )
        .unwrap();
        assert_eq!(n.body[0].lhs.kind, AccessKind::Accumulate);
        assert_eq!(n.body[0].rhs[0].kind, AccessKind::Accumulate);
        assert_eq!(n.body[0].rhs.len(), 3);
    }

    #[test]
    fn plus_eq_marks_accumulate() {
        let n = parse("doall (i, 0, 3) { C[i] += A[i]; }").unwrap();
        assert_eq!(n.body[0].lhs.kind, AccessKind::Accumulate);
    }

    #[test]
    fn plus_eq_desugars_to_explicit_self_read() {
        // Both spellings of an accumulate must produce identical IR.
        let sugar = parse("doall (i, 0, 3) { C[i] += A[i]; }").unwrap();
        let explicit = parse("doall (i, 0, 3) { l$C[i] = l$C[i] + A[i]; }").unwrap();
        assert_eq!(sugar, explicit);
        let st = &sugar.body[0];
        assert_eq!(st.rhs.len(), 2);
        assert_eq!(st.rhs[0].kind, AccessKind::Accumulate);
        assert_eq!(st.rhs[0].array, "C");
        assert_eq!(st.rhs[1].array, "A");
    }

    #[test]
    fn plus_eq_self_read_not_duplicated() {
        // An already-explicit accumulate self-read is left alone …
        let n = parse("doall (i, 0, 3) { l$C[i] += l$C[i] + A[i]; }").unwrap();
        assert_eq!(n.body[0].rhs.len(), 2);
        // … but a plain (Read-kind) self reference is a distinct old-value
        // use, so the implicit accumulate read is still inserted.
        let n = parse("doall (i, 0, 3) { C[i] += C[i]; }").unwrap();
        assert_eq!(n.body[0].rhs.len(), 2);
        assert_eq!(n.body[0].rhs[0].kind, AccessKind::Accumulate);
        assert_eq!(n.body[0].rhs[1].kind, AccessKind::Read);
    }

    #[test]
    fn plus_eq_round_trips_through_display() {
        let n = parse("doall (i, 0, 3) { C[i] += A[i]; }").unwrap();
        let reparsed = parse(&n.display()).unwrap();
        assert_eq!(n, reparsed);
    }

    #[test]
    fn subscript_overflow_is_error_not_panic() {
        let big = i128::MAX;
        let src = format!("doall (i, 0, 3) {{\n  A[{big} + {big}] = B[i];\n}}");
        let e = parse(&src).unwrap_err();
        assert!(e.message.contains("overflows"), "{e}");
        assert_eq!(e.line, 2, "{e:?}");
        assert!(e.column > 1, "{e:?}");

        // Coefficient accumulation overflows the same way.
        let src = format!("doall (i, 0, 3) {{ A[{big}*i + {big}*i] = B[i]; }}");
        let e = parse(&src).unwrap_err();
        assert!(e.message.contains("overflows"), "{e}");
    }

    #[test]
    fn scaled_subscripts() {
        let n = parse("doall (i, 0, 3) { doall (j, 0, 3) { A[2*i, i+2*j-1] = A[2*i, i+2*j-1]; } }")
            .unwrap();
        let a = &n.body[0].lhs;
        assert_eq!(a.g_matrix(), &IMat::from_rows(&[&[2, 1], &[0, 2]]));
        assert_eq!(a.offset(), &IVec::new(&[0, -1]));
    }

    #[test]
    fn negative_bounds_and_comments() {
        let n = parse(
            "// negative lower bound
             doall (i, -5, 5) { A[i] = A[i]; }",
        )
        .unwrap();
        assert_eq!(n.loops[0].lower, -5);
        assert_eq!(n.iteration_count(), 11);
    }

    #[test]
    fn constant_rhs_terms_ignored() {
        let n = parse("doall (i, 0, 3) { A[i] = B[i] + 7; }").unwrap();
        assert_eq!(n.body[0].rhs.len(), 1);
    }

    #[test]
    fn coefficient_times_ref_keeps_ref() {
        let n = parse("doall (i, 0, 3) { A[i] = 2*B[i] - C[i]; }").unwrap();
        assert_eq!(n.body[0].rhs.len(), 2);
    }

    #[test]
    fn error_on_unknown_index() {
        let e = parse("doall (i, 0, 3) { A[q] = A[i]; }").unwrap_err();
        assert!(e.message.contains("unknown index"), "{e}");
    }

    #[test]
    fn error_on_unbound_param() {
        let e = parse("doall (i, 0, N) { A[i] = A[i]; }").unwrap_err();
        assert!(e.message.contains("unbound"), "{e}");
    }

    #[test]
    fn error_on_doseq_inside_doall() {
        let e = parse("doall (i, 0, 3) { doseq (t, 0, 3) { A[i] = A[i]; } }").unwrap_err();
        assert!(e.message.contains("doseq"), "{e}");
    }

    #[test]
    fn error_on_trailing_garbage() {
        let e = parse("doall (i, 0, 3) { A[i] = A[i]; } garbage").unwrap_err();
        assert!(e.message.contains("trailing"), "{e}");
    }

    #[test]
    fn error_on_empty_nest() {
        assert!(parse("").is_err());
        assert!(parse("doseq (t, 0, 3) { }").is_err());
    }

    #[test]
    fn strided_doall_normalizes_to_unit_stride() {
        // i ∈ {1, 4, 7, 10}: four iterations, subscript i ↦ 3·i′ + 1.
        let n = parse("doall (i, 1, 10, 3) { A[i] = A[i]; }").unwrap();
        assert_eq!((n.loops[0].lower, n.loops[0].upper), (0, 3));
        assert_eq!(n.iteration_count(), 4);
        let manual = parse("doall (i, 0, 3) { A[3*i+1] = A[3*i+1]; }").unwrap();
        assert_eq!(n, manual);
    }

    #[test]
    fn strided_upper_bound_not_hit_exactly() {
        // i ∈ {2, 6}: 9 is not on the lattice, ⌊(9−2)/4⌋ = 1.
        let n = parse("doall (i, 2, 9, 4) { A[i] = A[i]; }").unwrap();
        assert_eq!(n.iteration_count(), 2);
        assert_eq!(n.body[0].lhs.g_matrix(), &IMat::from_rows(&[&[4]]));
        assert_eq!(n.body[0].lhs.offset(), &IVec::new(&[2]));
    }

    #[test]
    fn strided_doseq_renormalizes_trip_count_only() {
        // t ∈ {1, 5, 9}: three repetitions.
        let n = parse("doseq (t, 1, 10, 4) { doall (i, 0, 3) { A[i] = A[i]; } }").unwrap();
        assert_eq!(n.seq_repetitions(), 3);
        assert_eq!(n.body[0].lhs.g_matrix(), &IMat::from_rows(&[&[1]]));
    }

    #[test]
    fn unit_stride_argument_is_identity() {
        let with_s = parse("doall (i, 5, 9, 1) { A[i] = B[i-1]; }").unwrap();
        let without = parse("doall (i, 5, 9) { A[i] = B[i-1]; }").unwrap();
        assert_eq!(with_s, without);
    }

    #[test]
    fn stride_must_be_positive() {
        for src in [
            "doall (i, 0, 9, 0) { A[i] = A[i]; }",
            "doall (i, 0, 9, -2) { A[i] = A[i]; }",
        ] {
            let e = parse(src).unwrap_err();
            assert!(e.message.contains("stride"), "{e}");
        }
    }

    #[test]
    fn stride_as_named_parameter() {
        let mut params = HashMap::new();
        params.insert("S".to_string(), 2i128);
        let n = parse_with_params("doall (i, 0, 9, S) { A[i] = A[i]; }", &params).unwrap();
        assert_eq!(n.iteration_count(), 5);
        assert_eq!(n.body[0].lhs.g_matrix(), &IMat::from_rows(&[&[2]]));
    }

    #[test]
    fn stride_normalization_overflow_is_error_not_panic() {
        let big = i128::MAX;
        let src = format!("doall (i, 0, 7, 2) {{ A[{big}*i] = B[i]; }}");
        let e = parse(&src).unwrap_err();
        assert!(e.message.contains("overflow"), "{e}");
    }

    #[test]
    fn strided_display_round_trips() {
        // display() emits the normalized unit-stride form, which must
        // reparse to the identical nest.
        let n = parse("doall (i, 3, 17, 2) { doall (j, 1, 10, 3) { A[i, j] = B[i+j, i-j]; } }")
            .unwrap();
        let reparsed = parse(&n.display()).unwrap();
        assert_eq!(n, reparsed);
    }

    #[test]
    fn multiple_statements() {
        let n = parse(
            "doall (i, 0, 3) {
               A[i] = B[i];
               C[i] = B[i+1];
             }",
        )
        .unwrap();
        assert_eq!(n.body.len(), 2);
    }
}
