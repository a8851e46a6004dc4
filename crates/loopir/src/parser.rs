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

use crate::expr::AffineExpr;
use crate::nest::{LoopIndex, LoopNest, Statement};
use crate::refs::{AccessKind, ArrayRef};
use crate::span::{line_col, Span};
use crate::IrError;
use std::collections::HashMap;

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
    let mut p = Parser::new(src, params)?;
    let nest = p.parse_nest()?;
    p.expect_eof()?;
    Ok(nest)
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
    let mut p = Parser::new(src, params)?;
    let mut nests = Vec::new();
    loop {
        nests.push(p.parse_nest()?);
        if p.pos == p.tokens.len() {
            break;
        }
    }
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
    Int(i128),
    Sym(char),
    PlusEq,
    AccSigil, // `l$`
}

#[derive(Debug, Clone, Copy)]
struct Spanned<'a> {
    tok: Tok<'a>,
    offset: usize,
    end: usize,
}

fn tokenize(src: &str) -> Result<Vec<Spanned<'_>>, ParseError> {
    let bytes = src.as_bytes();
    // The length of the run of bytes from `start` that satisfy `keep`.
    let run = |start: usize, keep: fn(&u8) -> bool| {
        let rest = &bytes[start..];
        rest.iter().position(|b| !keep(b)).unwrap_or(rest.len())
    };
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let (tok, len) = match c {
            ' ' | '\t' | '\n' | '\r' => {
                i += 1;
                continue;
            }
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                i += run(i, |&b| b != b'\n');
                continue;
            }
            '0'..='9' => {
                let len = run(i, u8::is_ascii_digit);
                let n = src[i..i + len]
                    .parse()
                    .map_err(|_| ParseError::at("integer literal out of range", i, src))?;
                (Tok::Int(n), len)
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let len = run(i, |&b| b.is_ascii_alphanumeric() || b == b'_');
                // `l$` accumulate sigil.
                if &src[i..i + len] == "l" && bytes.get(i + 1) == Some(&b'$') {
                    (Tok::AccSigil, 2)
                } else {
                    (Tok::Ident(&src[i..i + len]), len)
                }
            }
            '+' if bytes.get(i + 1) == Some(&b'=') => (Tok::PlusEq, 2),
            '(' | ')' | '{' | '}' | '[' | ']' | ',' | ';' | '=' | '+' | '-' | '*' => {
                (Tok::Sym(c), 1)
            }
            other => {
                return Err(ParseError::at(
                    format!("unexpected character `{other}`"),
                    i,
                    src,
                ))
            }
        };
        out.push(Spanned {
            tok,
            offset: i,
            end: i + len,
        });
        i += len;
    }
    Ok(out)
}

struct Parser<'a> {
    tokens: Vec<Spanned<'a>>,
    pos: usize,
    params: &'a HashMap<String, i128>,
    src: &'a str,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str, params: &'a HashMap<String, i128>) -> Result<Self, ParseError> {
        Ok(Parser {
            tokens: tokenize(src)?,
            pos: 0,
            params,
            src,
        })
    }

    fn peek(&self) -> Option<Tok<'a>> {
        self.tokens.get(self.pos).map(|s| s.tok)
    }

    fn offset(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map_or(self.src.len(), |s| s.offset)
    }

    /// Offset one past the end of the most recently bumped token.
    fn prev_end(&self) -> usize {
        self.pos
            .checked_sub(1)
            .and_then(|p| self.tokens.get(p))
            .map_or(self.src.len(), |s| s.end)
    }

    fn bump(&mut self) -> Option<Tok<'a>> {
        let t = self.peek();
        self.pos += 1;
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError::at(msg, self.offset(), self.src))
    }

    fn expect_sym(&mut self, c: char) -> Result<(), ParseError> {
        match self.bump() {
            Some(Tok::Sym(s)) if s == c => Ok(()),
            other => {
                self.pos -= 1;
                self.err(format!("expected `{c}`, found {other:?}"))
            }
        }
    }

    fn expect_eof(&self) -> Result<(), ParseError> {
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            self.err("trailing input after loop nest")
        }
    }

    fn parse_nest(&mut self) -> Result<LoopNest, ParseError> {
        let nest_start = self.offset();
        let mut seq_loops: Vec<LoopIndex> = Vec::new();
        let mut seq_strides: Vec<i128> = Vec::new();
        let mut loops: Vec<LoopIndex> = Vec::new();
        let mut strides: Vec<i128> = Vec::new();
        let mut opened = 0usize;
        // Headers: doseq* doall+
        loop {
            match self.peek() {
                Some(Tok::Ident("doseq")) => {
                    if !loops.is_empty() {
                        return self.err("doseq must enclose all doall loops");
                    }
                    self.bump();
                    let (l, s) = self.parse_header()?;
                    seq_loops.push(l);
                    seq_strides.push(s);
                    opened += 1;
                }
                Some(Tok::Ident("doall")) => {
                    self.bump();
                    let (l, s) = self.parse_header()?;
                    loops.push(l);
                    strides.push(s);
                    opened += 1;
                }
                _ => break,
            }
            // Reject shadowed indices at the duplicate's own position.
            let latest = loops
                .last()
                .unwrap_or_else(|| seq_loops.last().expect("just pushed"));
            let earlier = seq_loops
                .iter()
                .chain(&loops)
                .filter(|l| l.name == latest.name);
            if earlier.count() > 1 {
                return Err(ParseError::at(
                    format!("index `{}` is declared by more than one loop", latest.name),
                    latest.span.map_or(nest_start, |s| s.start),
                    self.src,
                ));
            }
        }
        if loops.is_empty() {
            return self.err("expected at least one doall loop");
        }
        // Body statements.
        let mut body = Vec::new();
        while !matches!(self.peek(), Some(Tok::Sym('}')) | None) {
            body.push(self.parse_statement(&loops)?);
        }
        for _ in 0..opened {
            self.expect_sym('}')?;
        }
        // Normalize non-unit strides: substituting `i = lo + s·i′` turns
        // `doall (i, lo, hi, s)` into the unit-stride `i′ ∈ [0,
        // ⌊(hi−lo)/s⌋]` with each subscript coefficient scaled by `s`
        // and `coeff·lo` folded into the constant — the touched element
        // set is unchanged.
        for (k, s) in strides.iter().copied().enumerate() {
            if s == 1 {
                continue;
            }
            let l = &mut loops[k];
            let at = l.span.map_or(nest_start, |sp| sp.start);
            let lo = l.lower;
            l.upper = l
                .upper
                .checked_sub(lo)
                .map(|w| w.div_euclid(s))
                .ok_or_else(|| {
                    ParseError::at("stride normalization overflows i128", at, self.src)
                })?;
            l.lower = 0;
            for st in &mut body {
                for r in std::iter::once(&mut st.lhs).chain(st.rhs.iter_mut()) {
                    let at = r.span.map_or(at, |sp| sp.start);
                    for sub in &mut r.subscripts {
                        let c = sub.coeffs[k];
                        sub.constant = c
                            .checked_mul(lo)
                            .and_then(|t| sub.constant.checked_add(t))
                            .ok_or_else(|| {
                                ParseError::at("stride normalization overflows i128", at, self.src)
                            })?;
                        sub.coeffs[k] = c.checked_mul(s).ok_or_else(|| {
                            ParseError::at("stride normalization overflows i128", at, self.src)
                        })?;
                    }
                }
            }
        }
        // Sequential indices cannot appear in subscripts, so a strided
        // doseq only renormalizes its trip count.
        for (k, s) in seq_strides.iter().copied().enumerate() {
            if s == 1 {
                continue;
            }
            let l = &mut seq_loops[k];
            let at = l.span.map_or(nest_start, |sp| sp.start);
            l.upper = l
                .upper
                .checked_sub(l.lower)
                .map(|w| w.div_euclid(s))
                .ok_or_else(|| {
                    ParseError::at("stride normalization overflows i128", at, self.src)
                })?;
            l.lower = 0;
        }
        LoopNest::with_seq(seq_loops, loops, body)
            .map_err(|e| ParseError::at(e.to_string(), nest_start, self.src))
    }

    /// `(name, lo, hi[, step]) {` — returns the level plus its stride
    /// (`1` when the optional fourth argument is omitted).
    fn parse_header(&mut self) -> Result<(LoopIndex, i128), ParseError> {
        self.expect_sym('(')?;
        let name_start = self.offset();
        let name = match self.bump() {
            Some(Tok::Ident(n)) => n,
            _ => {
                self.pos -= 1;
                return self.err("expected loop index name");
            }
        };
        let name_span = Span::new(name_start, self.prev_end());
        self.expect_sym(',')?;
        let lower = self.parse_bound()?;
        self.expect_sym(',')?;
        let upper = self.parse_bound()?;
        let stride = if matches!(self.peek(), Some(Tok::Sym(','))) {
            self.bump();
            let at = self.offset();
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
        match self.bump() {
            Some(Tok::Int(n)) => Ok(n),
            Some(Tok::Sym('-')) => match self.bump() {
                Some(Tok::Int(n)) => Ok(-n),
                _ => {
                    self.pos -= 1;
                    self.err("expected integer after `-`")
                }
            },
            Some(Tok::Ident(name)) => match self.params.get(name) {
                Some(&v) => Ok(v),
                None => {
                    self.pos -= 1;
                    self.err(format!("unbound loop-bound parameter `{name}`"))
                }
            },
            _ => {
                self.pos -= 1;
                self.err("expected loop bound")
            }
        }
    }

    fn parse_statement(&mut self, loops: &[LoopIndex]) -> Result<Statement, ParseError> {
        let stmt_start = self.offset();
        let (mut lhs, _) = self.parse_ref(loops, AccessKind::Write)?;
        let acc = match self.bump() {
            Some(Tok::Sym('=')) => false,
            Some(Tok::PlusEq) => true,
            _ => {
                self.pos -= 1;
                return self.err("expected `=` or `+=`");
            }
        };
        if acc || lhs.kind == AccessKind::Accumulate {
            lhs.kind = AccessKind::Accumulate;
        }
        let mut rhs = Vec::new();
        loop {
            // term: optional sign, then int [ '*' ref ] | ref
            let mut negated = false;
            while let Some(Tok::Sym(s)) = self.peek() {
                match s {
                    '+' => {
                        self.bump();
                    }
                    '-' => {
                        negated = !negated;
                        self.bump();
                    }
                    _ => break,
                }
            }
            let _ = negated; // sign is irrelevant to reference structure
            match self.peek() {
                Some(Tok::Int(_)) => {
                    self.bump();
                    if matches!(self.peek(), Some(Tok::Sym('*'))) {
                        self.bump();
                        let (r, _) = self.parse_ref(loops, AccessKind::Read)?;
                        rhs.push(r);
                    }
                    // else: pure constant term, no reference
                }
                Some(Tok::Ident(_)) | Some(Tok::AccSigil) => {
                    let (r, _) = self.parse_ref(loops, AccessKind::Read)?;
                    rhs.push(r);
                }
                _ => return self.err("expected term on right-hand side"),
            }
            match self.peek() {
                Some(Tok::Sym('+')) | Some(Tok::Sym('-')) => continue,
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
        if acc {
            let has_self = rhs.iter().any(|r| {
                r.kind == AccessKind::Accumulate
                    && r.array == lhs.array
                    && r.subscripts == lhs.subscripts
            });
            if !has_self {
                rhs.insert(0, lhs.clone());
            }
        }
        Ok(Statement::new(lhs, rhs).with_span(Span::new(stmt_start, self.prev_end())))
    }

    /// `[l$]Name[affine, affine, …]`
    fn parse_ref(
        &mut self,
        loops: &[LoopIndex],
        default_kind: AccessKind,
    ) -> Result<(ArrayRef, usize), ParseError> {
        let ref_start = self.offset();
        let kind = if matches!(self.peek(), Some(Tok::AccSigil)) {
            self.bump();
            AccessKind::Accumulate
        } else {
            default_kind
        };
        let array = match self.bump() {
            Some(Tok::Ident(n)) => n,
            _ => {
                self.pos -= 1;
                return self.err("expected array name");
            }
        };
        self.expect_sym('[')?;
        let mut subs = Vec::new();
        loop {
            subs.push(self.parse_affine(loops)?);
            match self.bump() {
                Some(Tok::Sym(',')) => continue,
                Some(Tok::Sym(']')) => break,
                _ => {
                    self.pos -= 1;
                    return self.err("expected `,` or `]` in subscripts");
                }
            }
        }
        let d = subs.len();
        let span = Span::new(ref_start, self.prev_end());
        Ok((ArrayRef::new(array, subs, kind).with_span(span), d))
    }

    /// Sum of `[int *] index` and integer terms with `+`/`-` signs.
    fn parse_affine(&mut self, loops: &[LoopIndex]) -> Result<AffineExpr, ParseError> {
        let depth = loops.len();
        let mut expr = AffineExpr::constant(depth, 0);
        loop {
            let mut sign = 1i128;
            loop {
                match self.peek() {
                    Some(Tok::Sym('+')) => {
                        self.bump();
                    }
                    Some(Tok::Sym('-')) => {
                        sign = -sign;
                        self.bump();
                    }
                    _ => break,
                }
            }
            let term_start = self.offset();
            match self.bump() {
                Some(Tok::Int(n)) => {
                    if matches!(self.peek(), Some(Tok::Sym('*'))) {
                        self.bump();
                        match self.bump() {
                            Some(Tok::Ident(id)) => {
                                let k = self.index_of(id, loops)?;
                                expr.coeffs[k] =
                                    self.add_term(expr.coeffs[k], sign, n, term_start)?;
                            }
                            _ => {
                                self.pos -= 1;
                                return self.err("expected index after `*`");
                            }
                        }
                    } else {
                        expr.constant = self.add_term(expr.constant, sign, n, term_start)?;
                    }
                }
                Some(Tok::Ident(id)) => {
                    let k = self.index_of(id, loops)?;
                    expr.coeffs[k] = self.add_term(expr.coeffs[k], sign, 1, term_start)?;
                }
                _ => {
                    self.pos -= 1;
                    return self.err("expected subscript term");
                }
            }
            match self.peek() {
                Some(Tok::Sym('+')) | Some(Tok::Sym('-')) => continue,
                _ => break,
            }
        }
        Ok(expr)
    }

    /// `acc + sign * n` with overflow reported as a parse error at the
    /// term's source position instead of a panic/wrap.
    fn add_term(&self, acc: i128, sign: i128, n: i128, at: usize) -> Result<i128, ParseError> {
        n.checked_mul(sign)
            .and_then(|t| acc.checked_add(t))
            .ok_or_else(|| ParseError::at("affine subscript term overflows i128", at, self.src))
    }

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
    use alp_linalg::{IMat, IVec};

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
        assert_eq!(b1.g_matrix(), IMat::from_rows(&[&[1, 1], &[1, -1]]));
        assert_eq!(b1.offset(), IVec::new(&[0, -1]));
        let b2 = refs[2];
        assert_eq!(b2.offset(), IVec::new(&[4, 3]));
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
        assert_eq!(b.g_matrix(), IMat::identity(3));
        assert_eq!(b.offset(), IVec::new(&[-1, 0, 1]));
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
        assert_eq!(a.g_matrix(), IMat::from_rows(&[&[2, 1], &[0, 2]]));
        assert_eq!(a.offset(), IVec::new(&[0, -1]));
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
        assert_eq!(n.body[0].lhs.subscripts[0].coeffs, vec![4]);
        assert_eq!(n.body[0].lhs.subscripts[0].constant, 2);
    }

    #[test]
    fn strided_doseq_renormalizes_trip_count_only() {
        // t ∈ {1, 5, 9}: three repetitions.
        let n = parse("doseq (t, 1, 10, 4) { doall (i, 0, 3) { A[i] = A[i]; } }").unwrap();
        assert_eq!(n.seq_repetitions(), 3);
        assert_eq!(n.body[0].lhs.subscripts[0].coeffs, vec![1]);
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
        assert_eq!(n.body[0].lhs.subscripts[0].coeffs, vec![2]);
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
