//! The line-record layer both text formats share (`AIMTRACE v1` traces
//! and `AIMTEL v1` telemetry): a magic first line, then one record per
//! line — a tag and whitespace-separated fields — with blank lines and
//! `#` comments skipped. Fields are read typed, left to right; a record
//! must be consumed exactly, and every error cites its line.
//!
//! A [`Record`] also reads span payload fields, which `AIMTEL` writes as
//! decimal integers, `0`/`1` flags and value names.

use std::fmt::Display;
use std::io::BufRead;
use std::str::FromStr;

use aim_core::telemetry::FieldReader;

use crate::TraceError;

fn parse_err(line_no: usize, msg: impl Display) -> TraceError {
    TraceError::Parse(format!("line {line_no}: {msg}"))
}

/// Reads the records of one text file.
pub(crate) struct Lines<R> {
    r: R,
    line: String,
    no: usize,
}

impl<R: BufRead> Lines<R> {
    /// Starts reading `r`, which must open with the `magic` line.
    pub(crate) fn open(r: R, magic: &str) -> Result<Self, TraceError> {
        let mut lines = Lines {
            r,
            line: String::new(),
            no: 0,
        };
        if !lines.read()? {
            return Err(parse_err(1, "empty file"));
        }
        if lines.line.trim() != magic {
            return Err(parse_err(1, format!("bad magic (expected {magic})")));
        }
        Ok(lines)
    }

    fn read(&mut self) -> Result<bool, TraceError> {
        self.line.clear();
        self.no += 1;
        Ok(self.r.read_line(&mut self.line)? > 0)
    }

    /// The next record, or `None` at end of file.
    pub(crate) fn next_record(&mut self) -> Result<Option<Record<'_>>, TraceError> {
        loop {
            if !self.read()? {
                return Ok(None);
            }
            let line = self.line.trim();
            if !line.is_empty() && !line.starts_with('#') {
                break;
            }
        }
        Ok(Some(Record {
            no: self.no,
            rest: self.line.trim(),
        }))
    }
}

/// One record: the unread remainder of its line.
pub(crate) struct Record<'a> {
    no: usize,
    rest: &'a str,
}

impl<'a> Record<'a> {
    /// A parse error citing this record's line.
    pub(crate) fn err(&self, msg: impl Display) -> TraceError {
        parse_err(self.no, msg)
    }

    /// The next whitespace-separated field, raw.
    pub(crate) fn token(&mut self, what: &str) -> Result<&'a str, TraceError> {
        let rest = self
            .rest
            .trim_start_matches(|c: char| c.is_ascii_whitespace());
        if rest.is_empty() {
            return Err(self.err(format_args!("missing {what}")));
        }
        let end = rest
            .find(|c: char| c.is_ascii_whitespace())
            .unwrap_or(rest.len());
        let (token, rest) = rest.split_at(end);
        self.rest = rest;
        Ok(token)
    }

    /// Parses `raw` as a `T`, naming it `what` if it does not parse.
    pub(crate) fn parse<T: FromStr>(&self, what: &str, raw: &str) -> Result<T, TraceError>
    where
        T::Err: Display,
    {
        raw.parse()
            .map_err(|e| self.err(format_args!("bad {what}: {e}")))
    }

    /// The next field, parsed as a `T`.
    pub(crate) fn next<T: FromStr>(&mut self, what: &str) -> Result<T, TraceError>
    where
        T::Err: Display,
    {
        let raw = self.token(what)?;
        self.parse(what, raw)
    }

    /// The next `key=value` field, or `None` once the record is used up.
    pub(crate) fn pair(&mut self) -> Result<Option<(&'a str, &'a str)>, TraceError> {
        if self.peek().is_none() {
            return Ok(None);
        }
        let field = self.token("field")?;
        match field.split_once('=') {
            Some(pair) => Ok(Some(pair)),
            None => Err(self.err(format_args!("bad meta field {field}"))),
        }
    }

    /// Everything after the next separator, to end of line: a last field
    /// that may itself hold spaces.
    pub(crate) fn rest(&mut self, what: &str) -> Result<&'a str, TraceError> {
        let mut chars = self.rest.chars();
        chars.next();
        let rest = chars.as_str();
        if rest.is_empty() {
            return Err(self.err(format_args!("missing {what}")));
        }
        self.rest = "";
        Ok(rest)
    }

    /// Rejects any field left after the record's last one.
    pub(crate) fn end(&self) -> Result<(), TraceError> {
        match self.peek() {
            Some(extra) => Err(self.err(format_args!("unexpected field {extra}"))),
            None => Ok(()),
        }
    }

    fn peek(&self) -> Option<&'a str> {
        self.rest.split_ascii_whitespace().next()
    }
}

/// Span payload fields as `AIMTEL` writes them: decimal integers,
/// `0`/`1` flags, value names.
impl FieldReader for Record<'_> {
    type Error = TraceError;

    fn u32(&mut self, name: &'static str) -> Result<u32, TraceError> {
        self.next(name)
    }

    fn u64(&mut self, name: &'static str) -> Result<u64, TraceError> {
        self.next(name)
    }

    fn flag(&mut self, name: &'static str) -> Result<bool, TraceError> {
        match self.token(name)? {
            "0" => Ok(false),
            "1" => Ok(true),
            bad => Err(self.err(format_args!("bad {name}: {bad}"))),
        }
    }

    fn choice<T: Copy>(
        &mut self,
        name: &'static str,
        all: &[T],
        name_of: fn(T) -> &'static str,
    ) -> Result<T, TraceError> {
        let raw = self.token(name)?;
        all.iter()
            .copied()
            .find(|&v| name_of(v) == raw)
            .ok_or_else(|| self.err(format_args!("unknown {name} {raw}")))
    }
}
