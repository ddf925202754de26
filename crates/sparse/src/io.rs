//! Matrix file formats: Matrix Market and Harwell–Boeing.
//!
//! The paper's experiments use matrices from the Harwell–Boeing collection
//! and Tim Davis's (then ftp-hosted) collection. Those files are not shipped
//! with this repository, so the benchmark harness uses the synthetic
//! generators in `splu-matgen`; these readers exist so the real files can be
//! dropped in when available (see DESIGN.md §5).

use std::fs;
use std::io::{self, Read};
use std::path::Path;

use crate::pattern::check_dims;
use crate::{CooMatrix, CscMatrix, SparseError, SparsityPattern};

/// Reads a Matrix Market file (`coordinate real/integer/pattern`,
/// `general`/`symmetric`/`skew-symmetric`).
///
/// Pattern entries get value `1.0`; symmetric storage is expanded.
pub fn read_matrix_market(path: &Path) -> Result<CscMatrix, SparseError> {
    let text = fs::read_to_string(path)?;
    parse_matrix_market(&text)
}

/// A [`SparseError::ParseAt`] pinned to a 1-based source line and token.
fn tok_err(line: usize, token: &str, msg: &str) -> SparseError {
    SparseError::ParseAt {
        line,
        token: token.to_string(),
        msg: msg.to_string(),
    }
}

/// A cursor over the text after the banner: tokens by a single pass over
/// the bytes, lines counted as their feeds go by. Whitespace is what
/// `char::is_whitespace` says it is — bytes on the ASCII fast path, a decoded
/// `char` at a multi-byte lead byte — so tokens and trimmed lines are those
/// of `str::split_whitespace` and `str::trim`, whatever the text holds.
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
    /// 1-based number of the line `pos` is in.
    line: usize,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Self {
        Cursor {
            text,
            pos: 0,
            line: 1,
        }
    }

    /// Byte length of the whitespace character at `at`; 0 when a token
    /// character, or the end of the text, is there.
    #[inline(always)]
    fn white_len(&self, at: usize) -> usize {
        match self.text.as_bytes().get(at) {
            Some(b'\t'..=b'\r' | b' ') => 1,
            Some(&lead) if lead >= 0xC0 => self.wide_white_len(at),
            _ => 0,
        }
    }

    /// [`Self::white_len`] at the lead byte of a multi-byte character.
    #[cold]
    fn wide_white_len(&self, at: usize) -> usize {
        let c = self.text[at..].chars().next();
        c.filter(|c| c.is_whitespace()).map_or(0, char::len_utf8)
    }

    /// Skips whitespace up to, not over, the next line feed.
    #[inline]
    fn skip_blanks(&mut self) {
        let bytes = self.text.as_bytes();
        let mut at = self.pos;
        while at < bytes.len() && bytes[at] != b'\n' && !bytes[at].is_ascii_graphic() {
            match self.white_len(at) {
                0 => break,
                n => at += n,
            }
        }
        self.pos = at;
    }

    /// Moves past the line feed that ends the current line.
    #[inline]
    fn skip_line(&mut self) {
        let bytes = self.text.as_bytes();
        let mut at = self.pos;
        while at < bytes.len() && bytes[at] != b'\n' {
            at += 1;
        }
        self.pos = (at + 1).min(bytes.len());
        self.line += 1;
    }

    /// Advances to the first token of the next data line — comment lines
    /// (`%` first) and blank lines are skipped — and returns where that line
    /// starts; `None` at the end of the text.
    #[inline]
    fn next_data_line(&mut self) -> Option<usize> {
        while self.pos < self.text.len() {
            let start = self.pos;
            self.skip_blanks();
            match self.text.as_bytes().get(self.pos) {
                None | Some(b'\n' | b'%') => self.skip_line(),
                Some(_) => return Some(start),
            }
        }
        None
    }

    /// The next token of the current line; empty at its end.
    #[inline]
    fn token(&mut self) -> &'a str {
        self.skip_blanks();
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let mut at = start;
        // Printable ASCII belongs to the token; any other byte may start a
        // whitespace character.
        while at < bytes.len() && (bytes[at].is_ascii_graphic() || self.white_len(at) == 0) {
            at += 1;
        }
        self.pos = at;
        &self.text[start..at]
    }

    /// The next token of the current line, and what it says as an index:
    /// `str::parse::<usize>`, with the loop it would run folded into the
    /// scan for the all-digit tokens that cannot overflow; signs, overflow
    /// and junk take the library's path, so acceptance is the library's.
    #[inline]
    fn index(&mut self) -> (&'a str, Option<usize>) {
        self.skip_blanks();
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let mut at = start;
        let mut v = 0u64;
        while at < bytes.len() && bytes[at].is_ascii_digit() && at - start < 18 {
            v = v * 10 + u64::from(bytes[at] - b'0');
            at += 1;
        }
        if at > start && (at == bytes.len() || self.white_len(at) != 0) {
            self.pos = at;
            return (&self.text[start..at], usize::try_from(v).ok());
        }
        let tok = self.token();
        (tok, tok.parse().ok())
    }

    /// The 1-based row, column and value of the entry line that starts at
    /// `start` (`1.0` when the file is not `valued`); the rest of the line
    /// is left unread. Indices are not checked against the shape.
    #[inline(always)]
    fn entry(&mut self, start: usize, valued: bool) -> Result<(usize, usize, f64), SparseError> {
        let ln = self.line;
        let (r_tok, r) = self.index();
        let r = r.ok_or_else(|| tok_err(ln, r_tok, "bad row index"))?;
        let (c_tok, c) = self.index();
        if c_tok.is_empty() {
            return Err(tok_err(ln, self.line_from(start), "missing column index"));
        }
        let c = c.ok_or_else(|| tok_err(ln, c_tok, "bad column index"))?;
        if !valued {
            return Ok((r, c, 1.0));
        }
        let v_tok = self.token();
        if v_tok.is_empty() {
            return Err(tok_err(ln, self.line_from(start), "missing value"));
        }
        let v: f64 = v_tok.parse().map_err(|_| tok_err(ln, v_tok, "bad value"))?;
        if !v.is_finite() {
            return Err(tok_err(ln, v_tok, "non-finite value (NaN/Inf rejected)"));
        }
        Ok((r, c, v))
    }

    /// The current line from `start`, trimmed — the token an error about
    /// the whole line names.
    fn line_from(&self, start: usize) -> &'a str {
        let rest = &self.text[start..];
        rest.split('\n').next().unwrap_or(rest).trim()
    }
}

/// How a Matrix Market file stores its entries.
#[derive(Clone, Copy, PartialEq)]
enum Symmetry {
    General,
    Symmetric,
    SkewSymmetric,
}

/// Reads the banner line at the start of `cur`'s text and moves past it:
/// whether entries carry values (every field but `pattern`) and how they
/// are stored.
fn read_banner(cur: &mut Cursor<'_>) -> Result<(bool, Symmetry), SparseError> {
    let header_lc = cur.line_from(0).to_ascii_lowercase();
    let banner = cur.text.get(.."%%matrixmarket".len());
    if !banner.is_some_and(|b| b.eq_ignore_ascii_case("%%matrixmarket")) {
        return Err(SparseError::Parse("missing MatrixMarket banner".into()));
    }
    let toks: Vec<&str> = header_lc.split_whitespace().collect();
    if toks.len() < 5 || toks[1] != "matrix" || toks[2] != "coordinate" {
        return Err(SparseError::Parse(
            "only `matrix coordinate` files are supported".into(),
        ));
    }
    let field = toks[3];
    if !matches!(field, "real" | "integer" | "pattern") {
        return Err(SparseError::Parse(format!("unsupported field `{field}`")));
    }
    let symmetry = match toks[4] {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        "skew-symmetric" => Symmetry::SkewSymmetric,
        other => {
            return Err(SparseError::Parse(format!(
                "unsupported symmetry `{other}`"
            )))
        }
    };
    cur.skip_line();
    Ok((field != "pattern", symmetry))
}

/// Reads the size line — the first data line after the banner — and moves
/// past it: its 1-based line number, its trimmed text, and
/// `[nrows, ncols, nnz]`.
fn read_size_line<'a>(cur: &mut Cursor<'a>) -> Result<(usize, &'a str, [usize; 3]), SparseError> {
    let size_start = cur
        .next_data_line()
        .ok_or_else(|| SparseError::Parse("missing size line".into()))?;
    let (size_ln, size_line) = (cur.line, cur.line_from(size_start));
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| {
            t.parse::<usize>()
                .map_err(|_| tok_err(size_ln, t, "bad size token"))
        })
        .collect::<Result<_, _>>()?;
    let dims = <[usize; 3]>::try_from(dims)
        .map_err(|_| tok_err(size_ln, size_line, "size line must have 3 fields"))?;
    cur.skip_line();
    Ok((size_ln, size_line, dims))
}

/// The size line of Matrix Market `text` — its number, its text and
/// `[nrows, ncols, nnz]` — and whether the banner mirrors each entry (it
/// is symmetric or skew-symmetric), read before any array is sized.
pub fn matrix_market_size(text: &str) -> Result<(usize, &str, [usize; 3], bool), SparseError> {
    let mut cur = Cursor::new(text);
    let (_, symmetry) = read_banner(&mut cur)?;
    let (line, size_line, dims) = read_size_line(&mut cur)?;
    Ok((line, size_line, dims, symmetry != Symmetry::General))
}

/// Parses Matrix Market text. See [`read_matrix_market`].
///
/// Malformed entry lines are rejected with [`SparseError::ParseAt`] naming
/// the 1-based line and offending token; non-finite values (`nan`, `inf` —
/// which `f64` parsing would otherwise accept) and out-of-range indices are
/// rejected the same way.
///
/// One pass over the bytes into three flat arrays. Entries in strictly
/// increasing (column, row) order of a `general` matrix — what
/// [`format_matrix_market`] writes — *are* the compressed columns; any
/// other order, duplicates and symmetric expansion go through
/// [`CscMatrix::from_triplets_iter`]. The entry count of the size line
/// reserves no more than the rest of the text could hold.
pub fn parse_matrix_market(text: &str) -> Result<CscMatrix, SparseError> {
    if text.is_empty() {
        return Err(SparseError::Parse("empty file".into()));
    }
    let mut cur = Cursor::new(text);
    let (valued, symmetry) = read_banner(&mut cur)?;
    let (size_ln, size_line, [nrows, ncols, nnz]) = read_size_line(&mut cur)?;
    check_dims(nrows, ncols).map_err(|e| tok_err(size_ln, size_line, &e.to_string()))?;

    // The column pointers are the one array the shape alone sizes: a column
    // count this machine cannot hold is refused here, not in the allocator.
    let mut col_ptr: Vec<usize> = Vec::new();
    if col_ptr.try_reserve_exact(ncols + 1).is_err() {
        return Err(tok_err(
            size_ln,
            size_line,
            "column count exceeds what can be allocated",
        ));
    }
    // An entry line is at least `1 1\n`: the text bounds the reservation, so
    // a size line cannot ask for more memory than the file could fill.
    let cap = nnz.min((text.len() - cur.pos) / 4 + 1);
    let mut rows: Vec<u32> = Vec::with_capacity(cap);
    let mut cols: Vec<usize> = Vec::with_capacity(cap);
    let mut vals: Vec<f64> = Vec::with_capacity(cap);
    // Whether every entry so far follows its predecessor in (column, row).
    let mut sorted = true;
    let mut last = None;
    while let Some(start) = cur.next_data_line() {
        let (r, c, v) = cur.entry(start, valued)?;
        if r == 0 || c == 0 || r > nrows || c > ncols {
            return Err(tok_err(
                cur.line,
                cur.line_from(start),
                &format!("1-based entry indices outside the declared {nrows}x{ncols} shape"),
            ));
        }
        let at = (c - 1, r - 1);
        sorted &= last < Some(at);
        last = Some(at);
        rows.push(at.1 as u32);
        cols.push(at.0);
        vals.push(v);
        cur.skip_line();
    }
    if vals.len() != nnz {
        return Err(SparseError::Parse(format!(
            "expected {nnz} entries, found {}",
            vals.len()
        )));
    }
    if sorted && symmetry == Symmetry::General {
        col_ptr.resize(ncols + 1, 0);
        for &c in &cols {
            col_ptr[c + 1] += 1;
        }
        for j in 0..ncols {
            col_ptr[j + 1] += col_ptr[j];
        }
        let pattern = SparsityPattern::new(nrows, ncols, col_ptr, rows)?;
        return CscMatrix::from_pattern_values(pattern, vals);
    }
    drop(col_ptr);
    // Symmetric storage is expanded: the mirrored entry follows its
    // original, as a reader pushing both into one triplet list has it.
    let (mirrored, skew) = (
        symmetry != Symmetry::General,
        symmetry == Symmetry::SkewSymmetric,
    );
    let entries = rows.iter().zip(&cols).zip(&vals);
    let triplets = entries.flat_map(|((&r, &c), &v)| {
        let r = r as usize;
        let twin = (mirrored && r != c).then(|| (c, r, if skew { -v } else { v }));
        std::iter::once((r, c, v)).chain(twin)
    });
    CscMatrix::from_triplets_iter(nrows, ncols, triplets)
}

/// The buffer a streaming read ([`read_matrix_market_values`], a
/// right-hand side in serve mode) holds, whatever the file's size.
pub const STREAM_CHUNK: usize = 64 * 1024;

/// A reader's text as runs of whole lines through one fixed buffer: every
/// run but the last ends with a line feed, and a line cut by the end of
/// the buffer is carried to the front of the next run.
pub struct LineChunks<R> {
    inner: R,
    buf: Vec<u8>,
    /// Bytes of `buf` filled.
    len: usize,
    /// Where the bytes not yet handed out start.
    start: usize,
    eof: bool,
}

impl<R: Read> LineChunks<R> {
    /// A `bytes`-byte buffer (at least one) over `inner`.
    pub fn new(inner: R, bytes: usize) -> Self {
        LineChunks {
            inner,
            buf: vec![0; bytes.max(1)],
            len: 0,
            start: 0,
            eof: false,
        }
    }

    /// The next run of whole lines; `None` once the input is exhausted.
    ///
    /// # Errors
    ///
    /// A read error, a line longer than the buffer, or bytes that are not
    /// UTF-8 ([`io::ErrorKind::InvalidData`] for the last two).
    pub fn next_chunk(&mut self) -> io::Result<Option<&str>> {
        self.buf.copy_within(self.start..self.len, 0);
        (self.len, self.start) = (self.len - self.start, 0);
        while self.len < self.buf.len() && !self.eof {
            match self.inner.read(&mut self.buf[self.len..]) {
                Ok(0) => self.eof = true,
                Ok(n) => self.len += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let end = if self.eof {
            self.len
        } else {
            let last_feed = self.buf[..self.len].iter().rposition(|&b| b == b'\n');
            let longer =
                || io::Error::new(io::ErrorKind::InvalidData, "a line outgrows the buffer");
            last_feed.ok_or_else(longer)? + 1
        };
        if end == 0 {
            return Ok(None);
        }
        self.start = end;
        std::str::from_utf8(&self.buf[..end])
            .map(Some)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// The values of the Matrix Market file at `path` if its entries are
/// exactly `pattern`'s, in compressed-column order, under a `real` or
/// `integer` `general` banner: one pass through a [`STREAM_CHUNK`]-byte
/// buffer into one array of `pattern.nnz()` values, with no triplets and
/// no pattern built.
///
/// `Some` only when [`read_matrix_market`] would return `pattern` with
/// these values, bit for bit: the banner, size line and entries go through
/// that reader's own cursor. Any deviation — another layout, order or
/// entry, a token it refuses, bytes that are not UTF-8, a line longer than
/// the buffer, a banner and size line that do not both fit the first
/// buffer, a read error — is `None`, and the caller reads the file
/// with [`read_matrix_market`], whose matrix or error is the file's.
pub fn read_matrix_market_values(path: &Path, pattern: &SparsityPattern) -> Option<Vec<f64>> {
    stream_values(fs::File::open(path).ok()?, pattern, STREAM_CHUNK)
}

/// [`read_matrix_market_values`] over any reader, `chunk` bytes at a time.
pub(crate) fn stream_values(
    reader: impl Read,
    pattern: &SparsityPattern,
    chunk: usize,
) -> Option<Vec<f64>> {
    let (col_ptr, rows) = (pattern.col_ptr(), pattern.row_indices());
    let mut chunks = LineChunks::new(reader, chunk);
    // `None` until the banner and the size line, which must both be in the
    // first run of lines, have been read.
    let mut vals: Option<Vec<f64>> = None;
    let mut col = 0;
    while let Some(text) = chunks.next_chunk().ok()? {
        let mut cur = Cursor::new(text);
        let vals = match &mut vals {
            Some(vals) => vals,
            None => {
                let (valued, symmetry) = read_banner(&mut cur).ok()?;
                if !valued || symmetry != Symmetry::General {
                    return None;
                }
                let (_, _, dims) = read_size_line(&mut cur).ok()?;
                if dims != [pattern.nrows(), pattern.ncols(), pattern.nnz()] {
                    return None;
                }
                vals.insert(Vec::with_capacity(pattern.nnz()))
            }
        };
        while let Some(start) = cur.next_data_line() {
            let k = vals.len();
            let &row = rows.get(k)?;
            while col_ptr[col + 1] <= k {
                col += 1;
            }
            let (r, c, v) = cur.entry(start, true).ok()?;
            if (r, c) != (row as usize + 1, col + 1) {
                return None;
            }
            vals.push(v);
            cur.skip_line();
        }
    }
    vals.filter(|v| v.len() == pattern.nnz())
}

/// Writes a matrix in Matrix Market `coordinate real general` format.
pub fn write_matrix_market(m: &CscMatrix, path: &Path) -> Result<(), SparseError> {
    Ok(fs::write(path, format_matrix_market(m))?)
}

/// Formats a matrix as Matrix Market text. See [`write_matrix_market`].
pub fn format_matrix_market(m: &CscMatrix) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    out.push_str("%%MatrixMarket matrix coordinate real general\n");
    let _ = writeln!(out, "{} {} {}", m.nrows(), m.ncols(), m.nnz());
    for (i, j, v) in m.triplets() {
        let _ = writeln!(out, "{} {} {:.17e}", i + 1, j + 1, v);
    }
    out
}

/// A parsed Fortran edit descriptor like `(16I5)` or `(4E20.12)`.
struct FortranFormat {
    /// Field width in characters.
    width: usize,
}

fn parse_fortran_format(spec: &str) -> Result<FortranFormat, SparseError> {
    // Accept shapes like (16I5), (4E20.12), (1P5D16.8), (10I8), (3(1P,E25.16)).
    let s: String = spec
        .trim()
        .trim_start_matches('(')
        .trim_end_matches(')')
        .chars()
        .filter(|c| !c.is_whitespace())
        .collect();
    // Find the conversion character (I, E, D, F, G) scanning left to right,
    // skipping scale factors like `1P`.
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i].to_ascii_uppercase();
        if matches!(c, b'I' | b'E' | b'D' | b'F' | b'G') {
            // Width is the integer right after the conversion char.
            let rest = &s[i + 1..];
            let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
            let width: usize = digits
                .parse()
                .map_err(|_| SparseError::Parse(format!("bad format `{spec}`")))?;
            if width == 0 {
                return Err(SparseError::Parse(format!("zero width in `{spec}`")));
            }
            return Ok(FortranFormat { width });
        }
        i += 1;
    }
    Err(SparseError::Parse(format!(
        "no conversion character in format `{spec}`"
    )))
}

/// Extracts `count` fixed-width fields from consecutive `lines`.
fn read_fixed_fields<'a, I>(
    lines: &mut I,
    fmt: &FortranFormat,
    count: usize,
) -> Result<Vec<String>, SparseError>
where
    I: Iterator<Item = &'a str>,
{
    let mut fields = Vec::with_capacity(count);
    while fields.len() < count {
        let line = lines
            .next()
            .ok_or_else(|| SparseError::Parse("unexpected end of file".into()))?;
        let chars: Vec<char> = line.chars().collect();
        let mut pos = 0;
        while pos < chars.len() && fields.len() < count {
            let end = (pos + fmt.width).min(chars.len());
            let field: String = chars[pos..end].iter().collect();
            if !field.trim().is_empty() {
                fields.push(field.trim().to_string());
            }
            pos = end;
        }
    }
    Ok(fields)
}

/// Reads a Harwell–Boeing (`*.rua` / `*.rsa`) matrix file.
///
/// Supports real assembled matrices (`RUA`, `RSA`, `RUS`-style type codes
/// beginning `R?A`); symmetric storage is expanded. Right-hand sides, if
/// present, are ignored.
pub fn read_harwell_boeing(path: &Path) -> Result<CscMatrix, SparseError> {
    let text = fs::read_to_string(path)?;
    parse_harwell_boeing(&text)
}

/// Parses Harwell–Boeing text. See [`read_harwell_boeing`].
pub fn parse_harwell_boeing(text: &str) -> Result<CscMatrix, SparseError> {
    let mut lines = text.lines();
    let _title = lines
        .next()
        .ok_or_else(|| SparseError::Parse("empty file".into()))?;
    let card_line = lines
        .next()
        .ok_or_else(|| SparseError::Parse("missing card-count line".into()))?;
    let cards: Vec<usize> = card_line
        .split_whitespace()
        .take(5)
        .map(|t| {
            t.parse::<usize>()
                .map_err(|_| SparseError::Parse(format!("bad card count `{t}`")))
        })
        .collect::<Result<_, _>>()?;
    if cards.len() < 4 {
        return Err(SparseError::Parse("short card-count line".into()));
    }
    let valcrd = cards[3];

    let type_line = lines
        .next()
        .ok_or_else(|| SparseError::Parse("missing type line".into()))?;
    let mut tl = type_line.split_whitespace();
    let mxtype = tl
        .next()
        .ok_or_else(|| SparseError::Parse("missing matrix type".into()))?
        .to_ascii_uppercase();
    let dims: Vec<usize> = tl
        .take(3)
        .map(|t| {
            t.parse::<usize>()
                .map_err(|_| SparseError::Parse(format!("bad dimension `{t}`")))
        })
        .collect::<Result<_, _>>()?;
    if dims.len() < 3 {
        return Err(SparseError::Parse("short type line".into()));
    }
    let (nrows, ncols, nnz) = (dims[0], dims[1], dims[2]);
    let mut ty = mxtype.chars();
    let value_type = ty.next().unwrap_or('R');
    let symmetry = ty.next().unwrap_or('U');
    let assembled = ty.next().unwrap_or('A');
    if assembled != 'A' {
        return Err(SparseError::Parse("elemental matrices unsupported".into()));
    }
    if !matches!(value_type, 'R' | 'P') {
        return Err(SparseError::Parse(format!(
            "unsupported value type `{value_type}`"
        )));
    }
    let mirrored = matches!(symmetry, 'S' | 'Z');
    if mirrored && nrows != ncols {
        return Err(SparseError::Parse(format!(
            "symmetric storage of a {nrows}x{ncols} matrix"
        )));
    }

    let fmt_line = lines
        .next()
        .ok_or_else(|| SparseError::Parse("missing format line".into()))?;
    // The format line contains 3-4 parenthesized descriptors; split on ')'.
    let specs: Vec<String> = fmt_line
        .split(')')
        .filter(|s| s.contains('('))
        .map(|s| format!("{s})"))
        .collect();
    if specs.len() < 2 {
        return Err(SparseError::Parse("format line too short".into()));
    }
    let ptr_fmt = parse_fortran_format(&specs[0])?;
    let ind_fmt = parse_fortran_format(&specs[1])?;
    let val_fmt = if specs.len() > 2 && valcrd > 0 {
        Some(parse_fortran_format(&specs[2])?)
    } else {
        None
    };
    // Skip optional RHS descriptor line (present when rhscrd > 0).
    if cards.len() >= 5 && cards[4] > 0 {
        lines
            .next()
            .ok_or_else(|| SparseError::Parse("missing RHS format line".into()))?;
    }

    // A field occupies at least one byte of the body, so a header that
    // promises more fields than the body has bytes is refused here, before
    // anything is sized from it.
    let body_bytes: usize = lines.clone().map(str::len).sum();
    let per_entry = if val_fmt.is_some() { 2 } else { 1 };
    let fields = ncols
        .checked_add(1)
        .and_then(|ptrs| nnz.checked_mul(per_entry)?.checked_add(ptrs));
    if fields.is_none_or(|f| f > body_bytes) {
        return Err(SparseError::Parse(format!(
            "header promises {ncols} columns and {nnz} entries, the body has {body_bytes} bytes"
        )));
    }
    check_dims(nrows, ncols).map_err(|e| SparseError::Parse(e.to_string()))?;

    let ptr_fields = read_fixed_fields(&mut lines, &ptr_fmt, ncols + 1)?;
    let ind_fields = read_fixed_fields(&mut lines, &ind_fmt, nnz)?;
    let col_ptr: Vec<usize> = ptr_fields
        .iter()
        .map(|t| {
            t.parse::<usize>()
                .map_err(|_| SparseError::Parse(format!("bad pointer `{t}`")))
        })
        .collect::<Result<_, _>>()?;
    let row_idx: Vec<usize> = ind_fields
        .iter()
        .map(|t| {
            t.parse::<usize>()
                .map_err(|_| SparseError::Parse(format!("bad index `{t}`")))
        })
        .collect::<Result<_, _>>()?;
    let values: Vec<f64> = if let Some(vf) = &val_fmt {
        read_fixed_fields(&mut lines, vf, nnz)?
            .iter()
            .map(|t| {
                let v = t
                    .replace(['D', 'd'], "E")
                    .parse::<f64>()
                    .map_err(|_| SparseError::Parse(format!("bad value `{t}`")))?;
                if !v.is_finite() {
                    return Err(SparseError::Parse(format!(
                        "non-finite value `{t}` (NaN/Inf rejected)"
                    )));
                }
                Ok(v)
            })
            .collect::<Result<_, _>>()?
    } else {
        vec![1.0; nnz]
    };

    let zero_pointer = || SparseError::Parse("zero column pointer".into());
    let cap = if mirrored { nnz * 2 } else { nnz };
    let mut coo = CooMatrix::with_capacity(nrows, ncols, cap);
    for j in 0..ncols {
        let lo = col_ptr[j].checked_sub(1).ok_or_else(zero_pointer)?;
        let hi = col_ptr[j + 1].checked_sub(1).ok_or_else(zero_pointer)?;
        if hi > nnz || lo > hi {
            return Err(SparseError::Parse("inconsistent column pointers".into()));
        }
        for k in lo..hi {
            let i = row_idx[k]
                .checked_sub(1)
                .ok_or_else(|| SparseError::Parse("zero row index".into()))?;
            if i >= nrows {
                return Err(SparseError::Parse(format!(
                    "row index {} outside {nrows} rows",
                    i + 1
                )));
            }
            coo.push(i, j, values[k]);
            if symmetry == 'S' && i != j {
                coo.push(j, i, values[k]);
            }
            if symmetry == 'Z' && i != j {
                coo.push(j, i, -values[k]);
            }
        }
    }
    Ok(coo.to_csc())
}

/// Writes a matrix as a Harwell–Boeing `RUA` (real, unsymmetric,
/// assembled) file.
pub fn write_harwell_boeing(m: &CscMatrix, title: &str, path: &Path) -> Result<(), SparseError> {
    Ok(fs::write(path, format_harwell_boeing(m, title))?)
}

/// Formats a matrix as Harwell–Boeing `RUA` text. See
/// [`write_harwell_boeing`].
pub fn format_harwell_boeing(m: &CscMatrix, title: &str) -> String {
    use std::fmt::Write;
    let ncols = m.ncols();
    let nnz = m.nnz();
    // Fixed formats: pointers/indices as I10 (8 per line), values as
    // E24.16 (3 per line) — wide enough for any index and full precision.
    let per_line_int = 8usize;
    let per_line_val = 3usize;
    let ptrcrd = (ncols + 1).div_ceil(per_line_int);
    let indcrd = nnz.div_ceil(per_line_int);
    let valcrd = nnz.div_ceil(per_line_val);
    let totcrd = ptrcrd + indcrd + valcrd;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<72}{:<8}",
        title.chars().take(72).collect::<String>(),
        "parsplu"
    );
    let _ = writeln!(
        out,
        "{totcrd:>14}{ptrcrd:>14}{indcrd:>14}{valcrd:>14}{:>14}",
        0
    );
    let _ = writeln!(
        out,
        "{:<14}{:>14}{:>14}{:>14}{:>14}",
        "RUA",
        m.nrows(),
        ncols,
        nnz,
        0
    );
    let _ = writeln!(out, "{:<16}{:<16}{:<20}", "(8I10)", "(8I10)", "(3E24.16)");

    let write_ints = |out: &mut String, vals: &mut dyn Iterator<Item = usize>| {
        let mut count = 0;
        for v in vals {
            let _ = write!(out, "{v:>10}");
            count += 1;
            if count % per_line_int == 0 {
                out.push('\n');
            }
        }
        if count % per_line_int != 0 {
            out.push('\n');
        }
    };
    // 1-based column pointers.
    let mut ptrs = m.pattern().col_ptr().iter().map(|&p| p + 1);
    write_ints(&mut out, &mut ptrs);
    let mut rows = m.pattern().row_indices().iter().map(|&r| r as usize + 1);
    write_ints(&mut out, &mut rows);
    let mut count = 0;
    for &v in m.values() {
        let _ = write!(out, "{v:>24.16E}");
        count += 1;
        if count % per_line_val == 0 {
            out.push('\n');
        }
    }
    if count % per_line_val != 0 {
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reader this module shipped until the byte pass replaced it —
    /// `lines` and `split_whitespace` into a COO, then `to_csc` — kept
    /// verbatim as the oracle of the differential tests below.
    fn parse_by_lines(text: &str) -> Result<CscMatrix, SparseError> {
        let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l));
        let (_, header) = lines
            .next()
            .ok_or_else(|| SparseError::Parse("empty file".into()))?;
        let header_lc = header.to_ascii_lowercase();
        if !header_lc.starts_with("%%matrixmarket") {
            return Err(SparseError::Parse("missing MatrixMarket banner".into()));
        }
        let toks: Vec<&str> = header_lc.split_whitespace().collect();
        if toks.len() < 5 || toks[1] != "matrix" || toks[2] != "coordinate" {
            return Err(SparseError::Parse(
                "only `matrix coordinate` files are supported".into(),
            ));
        }
        let field = toks[3];
        let symmetry = toks[4];
        if !matches!(field, "real" | "integer" | "pattern") {
            return Err(SparseError::Parse(format!("unsupported field `{field}`")));
        }
        if !matches!(symmetry, "general" | "symmetric" | "skew-symmetric") {
            return Err(SparseError::Parse(format!(
                "unsupported symmetry `{symmetry}`"
            )));
        }

        let mut data =
            lines.filter(|(_, l)| !l.trim_start().starts_with('%') && !l.trim().is_empty());
        let (size_ln, size_line) = data
            .next()
            .ok_or_else(|| SparseError::Parse("missing size line".into()))?;
        let dims: Vec<usize> = size_line
            .split_whitespace()
            .map(|t| {
                t.parse::<usize>()
                    .map_err(|_| tok_err(size_ln, t, "bad size token"))
            })
            .collect::<Result<_, _>>()?;
        if dims.len() != 3 {
            return Err(tok_err(
                size_ln,
                size_line.trim(),
                "size line must have 3 fields",
            ));
        }
        let (nrows, ncols, nnz) = (dims[0], dims[1], dims[2]);

        let mut coo = CooMatrix::with_capacity(nrows, ncols, nnz);
        let mut seen = 0usize;
        for (ln, line) in data {
            let mut it = line.split_whitespace();
            let r_tok = it
                .next()
                .ok_or_else(|| tok_err(ln, line.trim(), "missing row index"))?;
            let r: usize = r_tok
                .parse()
                .map_err(|_| tok_err(ln, r_tok, "bad row index"))?;
            let c_tok = it
                .next()
                .ok_or_else(|| tok_err(ln, line.trim(), "missing column index"))?;
            let c: usize = c_tok
                .parse()
                .map_err(|_| tok_err(ln, c_tok, "bad column index"))?;
            let v: f64 = if field == "pattern" {
                1.0
            } else {
                let v_tok = it
                    .next()
                    .ok_or_else(|| tok_err(ln, line.trim(), "missing value"))?;
                let v: f64 = v_tok.parse().map_err(|_| tok_err(ln, v_tok, "bad value"))?;
                if !v.is_finite() {
                    return Err(tok_err(ln, v_tok, "non-finite value (NaN/Inf rejected)"));
                }
                v
            };
            if r == 0 || c == 0 || r > nrows || c > ncols {
                return Err(tok_err(
                    ln,
                    line.trim(),
                    &format!("1-based entry indices outside the declared {nrows}x{ncols} shape"),
                ));
            }
            let (r, c) = (r - 1, c - 1);
            coo.push(r, c, v);
            match symmetry {
                "symmetric" if r != c => coo.push(c, r, v),
                "skew-symmetric" if r != c => coo.push(c, r, -v),
                _ => {}
            }
            seen += 1;
        }
        if seen != nnz {
            return Err(SparseError::Parse(format!(
                "expected {nnz} entries, found {seen}"
            )));
        }
        Ok(coo.to_csc())
    }

    /// Both readers on `text`: the same matrix to the bit — pointers,
    /// indices, value bits — or the same error, line, token and message.
    /// The one place they part: a mirrored entry outside a non-square shape
    /// trips the assertion of the oracle's `CooMatrix::push` on the spot,
    /// where the byte pass reads on and returns a structured error — the
    /// triplet constructor's `IndexOutOfBounds`, unless a later line is
    /// malformed.
    fn differential(text: &str) -> Result<CscMatrix, SparseError> {
        let got = parse_matrix_market(text);
        let Ok(want) = std::panic::catch_unwind(|| parse_by_lines(text)) else {
            assert!(
                got.is_err(),
                "the oracle panicked on {text:?}, the reader said {got:?}"
            );
            return got;
        };
        match (&got, &want) {
            (Ok(g), Ok(w)) => {
                assert_eq!(g.pattern(), w.pattern(), "structure for {text:?}");
                let bits =
                    |m: &CscMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(g), bits(w), "value bits for {text:?}");
            }
            _ => assert_eq!(got, want, "for {text:?}"),
        }
        got
    }

    /// Matrix Market text of `entries` (0-based) under the given banner
    /// words; `pattern` files carry no value, `integer` ones a whole number.
    fn mm_text(
        field: &str,
        symmetry: &str,
        (nrows, ncols): (usize, usize),
        entries: &[(usize, usize, f64)],
    ) -> String {
        use std::fmt::Write;
        let mut out = format!("%%MatrixMarket matrix coordinate {field} {symmetry}\n");
        let _ = writeln!(out, "{nrows} {ncols} {}", entries.len());
        for &(i, j, v) in entries {
            let _ = match field {
                "pattern" => writeln!(out, "{} {}", i + 1, j + 1),
                "integer" => writeln!(out, "{} {} {}", i + 1, j + 1, (v * 100.0).round()),
                _ => writeln!(out, "{} {} {:.17e}", i + 1, j + 1, v),
            };
        }
        out
    }

    /// The reduced paper suite, taken over as triplets (the generators
    /// return matrices of this crate's non-test build).
    fn reduced_suite() -> Vec<(&'static str, CscMatrix)> {
        splu_matgen::paper_suite(splu_matgen::Scale::Reduced)
            .into_iter()
            .map(|m| {
                let a = CscMatrix::from_triplets_iter(m.a.nrows(), m.a.ncols(), m.a.triplets());
                (m.name, a.expect("suite matrices are valid"))
            })
            .collect()
    }

    /// What every writer here emits takes the direct path — entries in
    /// (column, row) order — and comes back as the matrix, bit for bit.
    #[test]
    fn reader_matches_the_oracle_on_the_writers_output() {
        for (name, a) in reduced_suite() {
            let b = differential(&format_matrix_market(&a)).unwrap();
            assert_eq!(a, b, "{name}");
        }
    }

    /// The same entries in any other shape go through the triplet path:
    /// shuffled, with duplicates (summed), and under every banner.
    #[test]
    fn reader_matches_the_oracle_on_unsorted_duplicated_and_expanded_entries() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(20);
        let shuffle = |entries: &mut Vec<(usize, usize, f64)>, rng: &mut SmallRng| {
            for i in (1..entries.len()).rev() {
                entries.swap(i, rng.gen_range(0..=i));
            }
        };
        for (name, a) in reduced_suite() {
            let shape = (a.nrows(), a.ncols());
            let mut entries: Vec<_> = a.triplets().collect();
            shuffle(&mut entries, &mut rng);
            let b = differential(&mm_text("real", "general", shape, &entries)).unwrap();
            assert_eq!(a, b, "{name}: the order of the lines is immaterial");
            for _ in 0..entries.len() / 4 {
                let twice = entries[rng.gen_range(0..entries.len())];
                entries.push(twice);
            }
            shuffle(&mut entries, &mut rng);
            for field in ["real", "integer", "pattern"] {
                for symmetry in ["general", "symmetric", "skew-symmetric"] {
                    let m = differential(&mm_text(field, symmetry, shape, &entries)).unwrap();
                    assert!(m.nnz() >= a.nnz(), "{name} {field} {symmetry}");
                }
            }
            // Sorted entries under a symmetric banner still need expanding.
            let sorted: Vec<_> = a.triplets().collect();
            let m = differential(&mm_text("real", "symmetric", shape, &sorted)).unwrap();
            assert!(m.nnz() >= a.nnz(), "{name}");
        }
    }

    /// Line endings, blanks, comments and tokens the format allows or the
    /// old reader happened to take: the byte pass reads every one of them
    /// the same way — and words every refusal the same way.
    #[test]
    fn reader_matches_the_oracle_on_layout_and_malformed_input() {
        const BANNER: &str = "%%MatrixMarket matrix coordinate real general";
        let bodies = [
            // CRLF endings, tabs, leading blanks, a missing final newline.
            "2 2 2\r\n1 1 1.5\r\n2 2 -2.5\r\n",
            "2\t2\t2\n\t1\t1\t1.5\n  2  2  -2.5",
            "  2 2 2  \n   1 1 1.5   \n2 2 -2.5 trailing words ignored\n",
            // Comment and blank lines before the size line and between entries.
            "% c\n\n   \n2 2 2\n% between\n1 1 1.5\n\n \t \n  % indented\n2 2 -2.5\n%\n",
            // Other whitespace: vertical tab, form feed, a carriage return
            // inside a line, no-break, em and ideographic spaces, NEL.
            "2\x0b2\x0c2\n1\r1\r1.5\n2\u{a0}2\u{2003}-2.5\u{3000}\n",
            "2 2 1\n\u{85}1\u{2028}2 3.5\n\u{a0}\n\u{a0}% not a token\n",
            // Index spellings `str::parse::<usize>` takes or refuses.
            "2 2 2\n+1 01 1.5\n0002 2 -2.5\n",
            "2 2 1\n-1 1 1.0\n",
            "2 2 1\n1 + 1.0\n",
            "2 2 1\n1 1. 1.0\n",
            "2 2 1\n18446744073709551615 1 1.0\n",
            "2 2 1\n18446744073709551616 1 1.0\n",
            "2 2 1\n1 99999999999999999999999 1.0\n",
            "2 2 1\n1 999999999999999999 1.0\n",
            "2 2 1\n1 1\u{e9} 1.0\n",
            // Values: every float spelling, then the non-finite ones.
            "2 2 2\n1 1 +1.5E+3\n2 2 .5e-3\n",
            "2 2 1\n1 1 nan\n",
            "2 2 1\n1 1 -NaN\n",
            "2 2 1\n2 1 inf\n",
            "2 2 1\n2 1 -Infinity\n",
            "2 2 1\n1 2 1e999\n",
            "2 2 1\n1 2 -1e999\n",
            "2 2 1\n1 2 1e-999\n",
            "2 2 1\n1 2 1.0.0\n",
            "2 2 1\n1 2 0x10\n",
            "2 2 1\n1 2 \u{221e}\n",
            // Indices outside the shape; the value is looked at first.
            "2 2 1\n0 1 1.0\n",
            "2 2 1\n1 0 1.0\n",
            "2 2 1\n3 1 1.0\n",
            "2 2 1\n1 3 1.0\n",
            "2 2 1\n3 3 nan\n",
            "0 0 0\n",
            "0 0 1\n1 1 1.0\n",
            "3 5 0\n",
            // Missing fields.
            "2 2 1\n1\n",
            "2 2 1\n  1 1  \r\n",
            // Entry counts: short, long, and a bad line past the count.
            "2 2 3\n1 1 1.0\n2 2 2.0\n",
            "2 2 1\n1 1 1.0\n2 2 2.0\n",
            "2 2 1\n1 1 1.0\n2 2 oops\n",
            "2 2 0\n",
            // Size lines.
            "",
            "\n\n% only comments\n",
            "2 2\n1 1 1.0\n",
            "2 2 1 7\n1 1 1.0\n",
            "2 two 1\n1 1 1.0\n",
            "2 2 1 x\n",
            "2 -2 1\n",
            "+2 2 1\n1 1 1.0",
            // Order and duplicates on a small scale.
            "2 2 3\n2 2 1.0\n1 1 2.0\n2 2 0.5\n",
            "2 2 2\n1 1 1.0\n1 1 1.0\n",
            "2 2 2\n2 1 1.0\n1 1 1.0\n",
            "2 3 4\n1 1 1.0\n2 1 0.0\n2 3 -0.0\n1 3 4.0\n",
        ];
        for body in bodies {
            let _ = differential(&format!("{BANNER}\n{body}"));
            let _ = differential(&format!("{BANNER}\r\n{body}"));
        }
        let banners = [
            "",
            "\n",
            " %%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1.0\n",
            "%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1.0\n",
            "%%MatrixMarke",
            "%%MatrixMarket\u{e9} matrix coordinate real general\n1 1 1\n1 1 1.0\n",
            "%%matrixMARKETx MATRIX Coordinate REAL General extra\n1 1 1\n1 1 1.0\n",
            "%%MatrixMarket matrix coordinate real\n1 1 1\n1 1 1.0\n",
            "%%MatrixMarket matrix array real general\n1 1\n1.0\n",
            "%%MatrixMarket tensor coordinate real general\n",
            "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0 0.0\n",
            "%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1.0\n",
            "%%MatrixMarket\tmatrix\u{a0}coordinate  pattern   symmetric\n2 2 2\n2 1\n2 2\n",
            "%%MatrixMarket matrix coordinate integer skew-symmetric\r\n2 2 1\r\n2 1 3\r\n",
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n2\n",
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n2 1 nan\n",
            "%%MatrixMarket matrix coordinate real general",
        ];
        for text in banners {
            let _ = differential(text);
        }
        let mirrored_out = "%%MatrixMarket matrix coordinate real symmetric\n1 3 1\n1 2 1.0\n";
        assert!(matches!(
            parse_matrix_market(mirrored_out),
            Err(SparseError::IndexOutOfBounds { row: 1, col: 0, .. })
        ));
    }

    /// The size line reserves nothing the text could not fill: an entry
    /// count (or a column count) far past the machine's memory comes back
    /// as a structured error — the oracle would die in the allocator.
    #[test]
    fn reader_bounds_what_the_size_line_reserves() {
        let text = "%%MatrixMarket matrix coordinate real general\n1 1 99999999999999\n";
        assert!(text.len() <= 80, "a file this small asks for terabytes");
        assert_eq!(
            parse_matrix_market(text),
            Err(SparseError::Parse(
                "expected 99999999999999 entries, found 0".into()
            ))
        );
        let one = format!("{text}1 1 2.5\n");
        assert_eq!(
            parse_matrix_market(&one),
            Err(SparseError::Parse(
                "expected 99999999999999 entries, found 1".into()
            ))
        );
        for ncols in ["4294967296", "99999999999999999", "18446744073709551615"] {
            let text = format!("%%MatrixMarket matrix coordinate real general\n1 {ncols} 0\n");
            match parse_matrix_market(&text) {
                Err(SparseError::ParseAt { line: 2, token, .. }) => {
                    assert_eq!(token, format!("1 {ncols} 0"))
                }
                other => panic!("expected a refusal of the size line, got {other:?}"),
            }
        }
    }

    /// Text built from the format's own pieces — banner words, comments,
    /// blanks of every kind, index- and value-like tokens, line endings —
    /// put together at random. Numbers stay under six digits, so the
    /// oracle's unbounded reservation stays small.
    fn arb_text() -> impl Strategy<Value = String> {
        const SEPS: [&str; 8] = [" ", " ", "  ", "\t", "\u{a0}", "\u{2003}", "\x0b", "\r"];
        const ENDS: [&str; 4] = ["\n", "\n", "\r\n", " \n"];
        const WORDS: [&str; 16] = [
            "0", "1", "2", "3", "+2", "03", "-1", "1.5", "-2.5e-3", "nan", "inf", "1e999", "x",
            "1.0.0", "%", "\u{e9}",
        ];
        Just(()).prop_perturb(|(), mut rng| {
            let mut pick = move |n: usize| (rng.next_u64() % n as u64) as usize;
            let mut text = String::new();
            let mut valued = true;
            match pick(10) {
                0 => {}
                1 => text.push_str("%%MatrixMarket matrix coordinate real\n"),
                _ => {
                    let field = ["real", "REAL", "integer", "pattern"][pick(4)];
                    valued = field != "pattern";
                    let symmetry = ["general", "general", "symmetric", "skew-symmetric"][pick(4)];
                    let sep = SEPS[pick(SEPS.len() - 1)];
                    text.push_str("%%MatrixMarket matrix coordinate");
                    text.push_str(&format!("{sep}{field}{sep}{symmetry}{}", ENDS[pick(4)]));
                }
            }
            let (nrows, ncols) = (1 + pick(3), 1 + pick(3));
            let mut body = String::new();
            let mut entries = 0;
            for _ in 0..pick(9) {
                for _ in 0..pick(3) {
                    body.push_str(SEPS[pick(SEPS.len())]);
                }
                match pick(16) {
                    0 => body.push_str("% comment 1 1 1"),
                    1 => {}
                    2 | 3 => {
                        entries += 1;
                        for _ in 0..1 + pick(4) {
                            body.push_str(WORDS[pick(16)]);
                            body.push_str(SEPS[pick(SEPS.len())]);
                        }
                    }
                    // Mostly well-formed entries inside the shape, so that
                    // whole files parse.
                    _ => {
                        entries += 1;
                        let sep = SEPS[pick(SEPS.len())];
                        let value = ["1.5", "-2.5e-3", "2", "0", "-0.0", "1e-320"][pick(6)];
                        let (i, j) = (1 + pick(nrows), 1 + pick(ncols));
                        let stray = usize::from(pick(24) == 0);
                        body.push_str(&format!("{}{sep}{j}", i + stray));
                        if valued || pick(6) == 0 {
                            body.push_str(&format!("{sep}{value}"));
                        }
                    }
                }
                body.push_str(ENDS[pick(4)]);
            }
            if pick(12) != 0 {
                // A size line that is mostly right about the entries below.
                let nnz = if pick(6) == 0 { pick(9) } else { entries };
                text.push_str(&format!("{nrows} {ncols} {nnz}{}", ENDS[pick(4)]));
            }
            text.push_str(&body);
            if pick(4) == 0 {
                text.truncate(text.trim_end().len());
            }
            text
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Structured input: the two readers agree on every text.
        #[test]
        fn reader_matches_the_oracle_on_arbitrary_structured_text(text in arb_text()) {
            let _ = differential(&text);
        }

        /// Arbitrary bytes, bare and behind a valid banner: a structured
        /// error or a valid matrix — the oracle's — never a panic.
        #[test]
        fn reader_never_panics_on_arbitrary_bytes(
            bytes in proptest::collection::vec(0u8..=255, 0..160),
        ) {
            let raw = String::from_utf8_lossy(&bytes);
            let _ = differential(&raw);
            let behind = format!("%%MatrixMarket matrix coordinate real general\n{raw}");
            if let Ok(m) = differential(&behind) {
                let p = m.pattern();
                let again = SparsityPattern::new(
                    p.nrows(),
                    p.ncols(),
                    p.col_ptr().to_vec(),
                    p.row_indices().to_vec(),
                );
                prop_assert!(again.is_ok(), "invariants of {:?}", behind);
            }
        }
    }

    /// The reduced sherman3 analogue as the writer formats it, and its
    /// pattern: what a daemon session holds and a values file repeats.
    fn sherman3_values() -> (String, SparsityPattern) {
        let (_, a) = reduced_suite()
            .into_iter()
            .find(|(name, _)| *name == "sherman3")
            .expect("the suite has sherman3");
        (format_matrix_market(&a), a.pattern().clone())
    }

    /// Chunk sizes of the streaming tests: below the banner line (nothing
    /// streams), around the longest entry line, and the production size.
    const CHUNKS: [usize; 9] = [1, 7, 46, 64, 65, 100, 257, 4096, STREAM_CHUNK];

    /// [`stream_values`] on `bytes` at every chunk size of `chunks` against
    /// the general reader on the same bytes as a file (whose text must be
    /// UTF-8): `Some` only with the values that reader returns alongside
    /// `pattern` itself, bit for bit. Returns the chunk sizes that
    /// streamed.
    fn stream_agrees(bytes: &[u8], pattern: &SparsityPattern, chunks: &[usize]) -> Vec<usize> {
        let whole = std::str::from_utf8(bytes).map(parse_matrix_market);
        let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut streamed = Vec::new();
        for &chunk in chunks {
            let Some(vals) = stream_values(bytes, pattern, chunk) else {
                continue;
            };
            let Ok(Ok(m)) = &whole else {
                panic!("{chunk}-byte chunks streamed a file the reader refuses: {whole:?}");
            };
            assert_eq!(m.pattern(), pattern, "{chunk}-byte chunks");
            assert_eq!(bits(m.values()), bits(&vals), "{chunk}-byte chunks");
            streamed.push(chunk);
        }
        streamed
    }

    /// An edit a values file can suffer on its way to the reader, chosen by
    /// `kind` and placed by `a` and `b`.
    fn mutate(text: &str, kind: u64, a: u64, b: u64) -> Vec<u8> {
        let mut lines: Vec<String> = text.split_inclusive('\n').map(String::from).collect();
        let pick = |x: u64, n: usize| (x % n.max(1) as u64) as usize;
        let n = lines.len();
        match kind % 10 {
            0 => {
                let mut bytes = text.as_bytes().to_vec();
                let at = pick(a, bytes.len());
                bytes[at] ^= 1 << (b % 8);
                return bytes;
            }
            1 => lines.swap(pick(a, n), pick(b, n)),
            2 | 8 => {
                // An entry moved to another row of its column, or to the
                // next column in its row.
                let at = 2 + pick(a, n - 2);
                if let [r, c, v] = lines[at].split_whitespace().collect::<Vec<_>>()[..] {
                    lines[at] = match (kind % 10, c.parse::<usize>()) {
                        (8, Ok(c)) => format!("{r} {} {v}\n", c % 160 + 1),
                        _ => format!("{} {c} {v}\n", 1 + pick(b, 160)),
                    };
                }
            }
            3 => return text.as_bytes()[..pick(a, text.len())].to_vec(),
            4 => return text.replace('\n', "\r\n").into_bytes(),
            5 => lines.insert(1 + pick(a, n), format!("%{}\n", " c".repeat(pick(b, 40)))),
            6 => return text.trim_end_matches('\n').as_bytes().to_vec(),
            9 => {
                let at = pick(a, n);
                lines.insert(at, lines[at].clone());
            }
            _ => {
                // Blanks that push a line across a buffer edge, or past it.
                let at = pick(a, n);
                let line = lines[at].trim_end_matches('\n').to_string();
                lines[at] = format!("{line}{}\n", " \t".repeat(pick(b, 80)));
            }
        }
        lines.concat().into_bytes()
    }

    /// The writer's file streams at every chunk that holds its banner and
    /// size line — lines cut by the buffer's edge carried over — and so do
    /// the layouts the reader takes the same way: CRLF, comment lines, no
    /// final newline, blanks at the ends of lines. A file out of order,
    /// with an entry moved or repeated, or cut short never streams; every
    /// answer is the reader's.
    #[test]
    fn streamed_values_are_the_readers_or_nothing() {
        let (text, pattern) = sherman3_values();
        let fits = &CHUNKS[3..];
        assert_eq!(stream_agrees(text.as_bytes(), &pattern, &CHUNKS), fits);
        // A comment between the banner and the size line pushes the size
        // line out of the first 64 or 65 bytes.
        let (none, past_comment): (&[usize], &[usize]) = (&[], &CHUNKS[5..]);
        for (kind, a, b, want) in [
            (4, 0, 0, fits),
            (5, 0, 7, past_comment),
            (5, 300, 3, fits),
            (6, 0, 0, fits),
            (7, 20, 5, fits),
            (7, 561, 9, fits),
            (1, 5, 9, none),
            (1, 0, 1, none),
            (2, 7, 100, none),
            (8, 7, 0, none),
            (8, 561, 0, none),
            (9, 300, 0, none),
            (9, 563, 0, none),
            (3, 9000, 0, none),
        ] {
            let bytes = mutate(&text, kind, a, b);
            let streamed = stream_agrees(&bytes, &pattern, &CHUNKS);
            assert_eq!(streamed, want, "mutation {kind} at ({a}, {b})");
        }
        // A line longer than the buffer, and one that is not UTF-8.
        let long = text.replacen("\n1 1 ", &format!("\n1 1 {}", " ".repeat(300)), 1);
        assert_eq!(
            stream_agrees(long.as_bytes(), &pattern, &CHUNKS),
            [4096, STREAM_CHUNK]
        );
        let mut latin1 = text.into_bytes();
        let end = latin1.len() - 1;
        latin1.splice(end..end, [b' ', 0xe9]);
        assert!(stream_agrees(&latin1, &pattern, &CHUNKS).is_empty());
    }

    /// A row index past 2^32 whose low 32 bits name the pattern's row is a
    /// deviation: nothing streams, and the reader refuses the file.
    #[test]
    fn streamed_values_refuse_a_row_past_u32() {
        let pattern = SparsityPattern::new(6, 1, vec![0, 1], vec![4]).unwrap();
        let file = |row: u64| {
            format!("%%MatrixMarket matrix coordinate real general\n6 1 1\n{row} 1 2.5\n")
        };
        assert_eq!(
            stream_agrees(file(5).as_bytes(), &pattern, &CHUNKS),
            &CHUNKS[3..]
        );
        let wide = file((1 << 32) + 5);
        assert!(wide.contains("\n4294967301 1 2.5\n"));
        assert!(stream_agrees(wide.as_bytes(), &pattern, &CHUNKS).is_empty());
        assert!(parse_matrix_market(&wide).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Up to three edits of a valid values file, at a chunk size of
        /// 1..320 bytes and the production one: the streamed values are
        /// the reader's, or nothing streams.
        #[test]
        fn streamed_values_survive_random_edits(
            edits in proptest::collection::vec((0u64..10, 0u64..100_000, 0u64..1000), 1..4),
            chunk in 1usize..320,
        ) {
            let (text, pattern) = sherman3_values();
            let mut bytes = text.into_bytes();
            for (kind, a, b) in edits {
                let text = String::from_utf8_lossy(&bytes).into_owned();
                bytes = mutate(&text, kind, a, b);
            }
            let _ = stream_agrees(&bytes, &pattern, &[chunk, STREAM_CHUNK]);
        }

        /// Arbitrary bytes, bare and behind the valid banner and size line
        /// of a 2 x 2 pattern: nothing streams that the reader would not
        /// read as that pattern, and nothing panics.
        #[test]
        fn streamed_values_survive_arbitrary_bytes(
            bytes in proptest::collection::vec(0u8..=255, 0..160),
            chunk in 1usize..64,
        ) {
            let pattern = SparsityPattern::new(2, 2, vec![0, 1, 2], vec![0, 1]).unwrap();
            let _ = stream_agrees(&bytes, &pattern, &[chunk, STREAM_CHUNK]);
            let behind = [&b"%%MatrixMarket matrix coordinate real general\n2 2 2\n"[..], &bytes].concat();
            let _ = stream_agrees(&behind, &pattern, &[chunk + 64, STREAM_CHUNK]);
        }
    }

    #[test]
    fn matrix_market_roundtrip() {
        let a = CscMatrix::from_triplets(3, 2, &[(0, 0, 1.5), (2, 0, -2.0), (1, 1, 3.25)]).unwrap();
        let text = format_matrix_market(&a);
        let b = parse_matrix_market(&text).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn matrix_market_symmetric_expansion() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    % comment\n\
                    2 2 2\n\
                    1 1 4.0\n\
                    2 1 1.0\n";
        let a = parse_matrix_market(text).unwrap();
        assert_eq!(a.get(0, 1), 1.0);
        assert_eq!(a.get(1, 0), 1.0);
        assert_eq!(a.get(0, 0), 4.0);
        assert_eq!(a.nnz(), 3);
    }

    #[test]
    fn matrix_market_pattern_and_errors() {
        let ok = "%%MatrixMarket matrix coordinate pattern general\n1 1 1\n1 1\n";
        assert_eq!(parse_matrix_market(ok).unwrap().get(0, 0), 1.0);
        assert!(parse_matrix_market("nonsense").is_err());
        let wrong_count = "%%MatrixMarket matrix coordinate real general\n1 1 2\n1 1 1.0\n";
        assert!(parse_matrix_market(wrong_count).is_err());
        let oob = "%%MatrixMarket matrix coordinate real general\n1 1 1\n2 1 1.0\n";
        assert!(parse_matrix_market(oob).is_err());
    }

    /// Satellite regression: malformed Matrix Market files are rejected
    /// with [`SparseError::ParseAt`] carrying the 1-based line number and
    /// the offending token — NaN/Inf values (which `f64` parsing would
    /// accept) and out-of-range indices included.
    #[test]
    fn matrix_market_rejects_malformed_entries_with_line_and_token() {
        let cases: &[(&str, usize, &str)] = &[
            // (file text, expected line, expected token substring)
            (
                "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 2.0\n2 2 nan\n",
                4,
                "nan",
            ),
            (
                "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 inf\n",
                3,
                "inf",
            ),
            (
                "%%MatrixMarket matrix coordinate real general\n% pad\n2 2 1\n1 1 -Infinity\n",
                4,
                "-Infinity",
            ),
            (
                "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",
                3,
                "3 1 1.0",
            ),
            (
                "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n",
                3,
                "0 1 1.0",
            ),
            (
                "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 x 1.0\n",
                3,
                "x",
            ),
            (
                "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",
                3,
                "1 1",
            ),
            (
                "%%MatrixMarket matrix coordinate real general\n2 two 1\n1 1 1.0\n",
                2,
                "two",
            ),
        ];
        for (text, want_line, want_token) in cases {
            match parse_matrix_market(text) {
                Err(SparseError::ParseAt { line, token, .. }) => {
                    assert_eq!(line, *want_line, "line for {text:?}");
                    assert!(
                        token.contains(want_token),
                        "token `{token}` misses `{want_token}` for {text:?}"
                    );
                }
                other => panic!("expected ParseAt for {text:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn harwell_boeing_rejects_non_finite_values() {
        let text = "\
bad example                                                             bad
             4             1             1             2             0
RUA                        2             2             2             0
(6I3)           (8I3)           (4E16.8)
  1  2  3
  1  2
             NaN  1.00000000E+00
";
        let err = parse_harwell_boeing(text).unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
    }

    #[test]
    fn fortran_format_parsing() {
        assert_eq!(parse_fortran_format("(16I5)").unwrap().width, 5);
        assert_eq!(parse_fortran_format("(4E20.12)").unwrap().width, 20);
        assert_eq!(parse_fortran_format("(1P5D16.8)").unwrap().width, 16);
        assert!(parse_fortran_format("(XYZ)").is_err());
    }

    #[test]
    fn harwell_boeing_tiny_rua() {
        // 3x3 matrix, columns: {(1,1)=1, (3,1)=4}, {(2,2)=3}, {(1,3)=2, (3,3)=5}
        let text = "\
tiny example                                                            tiny
             5             1             2             2             0
RUA                        3             3             5             0
(6I3)           (8I3)           (4E16.8)
  1  3  4  6
  1  3  2  1  3
  1.00000000E+00  4.00000000E+00  3.00000000E+00  2.00000000E+00  5.00000000E+00
";
        let a = parse_harwell_boeing(text).unwrap();
        assert_eq!(a.nrows(), 3);
        assert_eq!(a.nnz(), 5);
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(2, 0), 4.0);
        assert_eq!(a.get(1, 1), 3.0);
        assert_eq!(a.get(0, 2), 2.0);
        assert_eq!(a.get(2, 2), 5.0);
    }

    #[test]
    fn harwell_boeing_symmetric_expansion() {
        let text = "\
sym example                                                             sym
             4             1             1             1             0
RSA                        2             2             2             0
(6I3)           (8I3)           (4E16.8)
  1  3  3
  1  2
  2.00000000E+00 -1.00000000E+00
";
        let a = parse_harwell_boeing(text).unwrap();
        assert_eq!(a.get(0, 0), 2.0);
        assert_eq!(a.get(1, 0), -1.0);
        assert_eq!(a.get(0, 1), -1.0);
    }

    #[test]
    fn harwell_boeing_writer_roundtrips() {
        let a = CscMatrix::from_triplets(
            4,
            3,
            &[
                (0, 0, 1.5),
                (3, 0, -2.25e-7),
                (1, 1, 3.0),
                (0, 2, 4.125e9),
                (2, 2, -5.5),
            ],
        )
        .unwrap();
        let text = format_harwell_boeing(&a, "roundtrip test");
        let b = parse_harwell_boeing(&text).unwrap();
        assert_eq!(a.pattern(), b.pattern());
        for ((_, _, va), (_, _, vb)) in a.triplets().zip(b.triplets()) {
            assert!((va - vb).abs() <= 1e-15 * va.abs().max(1.0), "{va} vs {vb}");
        }
    }

    #[test]
    fn harwell_boeing_writer_handles_empty_columns() {
        let a = CscMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (1, 2, 2.0)]).unwrap();
        let text = format_harwell_boeing(&a, "empties");
        let b = parse_harwell_boeing(&text).unwrap();
        assert_eq!(a, b);
    }

    /// A Harwell–Boeing file with the given type-line fields and body; the
    /// card counts only matter for `valcrd > 0` (values present).
    fn hb_text(mxtype: &str, dims: &str, ptrs: &str, inds: &str, vals: Option<&str>) -> String {
        let valcrd = usize::from(vals.is_some());
        format!(
            "hostile\n 3 1 1 {valcrd} 0\n{mxtype} {dims} 0\n(6I3) (8I3) (4E16.8)\n{ptrs}\n{inds}\n{}",
            vals.map_or(String::new(), |v| format!("{v}\n"))
        )
    }

    /// Headers and bodies that lie: each is a `SparseError::Parse`, never a
    /// panic, an overflow or an allocation sized from the lie.
    #[test]
    fn harwell_boeing_hostile_inputs_are_parse_errors() {
        let max = usize::MAX;
        let two = Some("         1.0E+00         2.0E+00");
        let cases = [
            // A zero pointer, first or later (`col_ptr[j + 1] - 1`).
            (
                hb_text("RUA", "2 2 2", "  1  0  3", "  1  2", two),
                "zero column pointer",
            ),
            (
                hb_text("RUA", "2 2 2", "  0  2  3", "  1  2", two),
                "zero column pointer",
            ),
            // Pointers that run backwards or past the entries.
            (
                hb_text("RUA", "2 2 2", "  1  3  2", "  1  2", two),
                "inconsistent",
            ),
            (
                hb_text("RUA", "2 2 2", "  1  2  9", "  1  2", two),
                "inconsistent",
            ),
            // Row indices of zero and beyond the declared rows.
            (
                hb_text("RUA", "2 2 2", "  1  2  3", "  0  2", two),
                "zero row index",
            ),
            (
                hb_text("RUA", "2 2 2", "  1  2  3", "  1  3", two),
                "row index 3",
            ),
            // Symmetric and skew expansion need a square matrix.
            (
                hb_text("RSA", "3 2 2", "  1  2  3", "  1  3", two),
                "symmetric storage",
            ),
            (
                hb_text("RZA", "2 3 2", "  1  2  3  3", "  1  2", two),
                "symmetric storage",
            ),
            // Counts the body cannot hold, up to the ones that overflow.
            (
                hb_text("RUA", &format!("2 {max} 2"), "  1  2  3", "  1  2", two),
                "header promises",
            ),
            (
                hb_text(
                    "RUA",
                    &format!("2 {} 2", max - 1),
                    "  1  2  3",
                    "  1  2",
                    two,
                ),
                "header promises",
            ),
            (
                hb_text("RUA", &format!("2 2 {max}"), "  1  2  3", "  1  2", two),
                "header promises",
            ),
            (
                hb_text(
                    "RUA",
                    &format!("2 2 {}", max / 2 + 1),
                    "  1  2  3",
                    "  1  2",
                    two,
                ),
                "header promises",
            ),
            (
                hb_text("PUA", &format!("2 2 {max}"), "  1  2  3", "  1  2", None),
                "header promises",
            ),
            (
                hb_text("PUA", "2 2 1000000000000", "  1  2  3", "  1  2", None),
                "header promises",
            ),
            (
                hb_text("RUA", "2 1000000000000 2", "  1  2  3", "  1  2", two),
                "header promises",
            ),
        ];
        for (text, want) in &cases {
            match std::panic::catch_unwind(|| parse_harwell_boeing(text)) {
                Ok(Err(SparseError::Parse(msg))) => {
                    assert!(msg.contains(want), "{text:?}: `{msg}` lacks `{want}`")
                }
                Ok(other) => panic!("expected a parse error for {text:?}, got {other:?}"),
                Err(_) => panic!("panicked on {text:?}"),
            }
        }
        // The same shapes with honest numbers parse.
        let ok = hb_text("RUA", "2 2 2", "  1  2  3", "  1  2", two);
        assert_eq!(parse_harwell_boeing(&ok).unwrap().get(1, 1), 2.0);
        let pattern = hb_text("PUA", "2 2 2", "  1  2  3", "  1  2", None);
        assert_eq!(parse_harwell_boeing(&pattern).unwrap().nnz(), 2);
    }

    /// Every position of a valid file, overwritten with bytes drawn from a
    /// fixed seed: the reader answers with a matrix or a
    /// `SparseError::Parse`, whatever the damage.
    #[test]
    fn harwell_boeing_survives_single_byte_mutations() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let a = CscMatrix::from_triplets(
            4,
            4,
            &[
                (0, 0, 1.5),
                (3, 0, -2.25e-7),
                (1, 1, 3.0),
                (0, 2, 4.125e9),
                (2, 2, -5.5),
                (3, 3, 7.0),
            ],
        )
        .unwrap();
        for valid in [
            format_harwell_boeing(&a, "mutation seed"),
            format_harwell_boeing(&a, "mutation seed").replacen("RUA", "RSA", 1),
        ] {
            parse_harwell_boeing(&valid).expect("the unmutated file parses");
            let mut rng = SmallRng::seed_from_u64(23);
            for pos in 0..valid.len() {
                for round in 0..6 {
                    // Digits and blanks do the structural damage (counts,
                    // pointers, field boundaries); the rest is any ASCII.
                    let byte = match round {
                        0 => b'0',
                        1 => b'9',
                        2 => b' ',
                        3 => b'\n',
                        _ => rng.gen_range(0u8..128),
                    };
                    let mut bytes = valid.clone().into_bytes();
                    bytes[pos] = byte;
                    let text = String::from_utf8(bytes).expect("ASCII stays UTF-8");
                    match std::panic::catch_unwind(|| parse_harwell_boeing(&text)) {
                        Ok(Ok(_) | Err(SparseError::Parse(_))) => {}
                        Ok(Err(e)) => panic!("byte {pos} <- {byte:#04x}: unstructured {e:?}"),
                        Err(_) => panic!("byte {pos} <- {byte:#04x}: panicked"),
                    }
                }
            }
        }
    }

    #[test]
    fn read_write_files() {
        let dir = std::env::temp_dir();
        let path = dir.join("parsplu_io_test.mtx");
        let a = CscMatrix::identity(4);
        write_matrix_market(&a, &path).unwrap();
        let b = read_matrix_market(&path).unwrap();
        assert_eq!(a, b);
        let _ = std::fs::remove_file(&path);
    }
}
