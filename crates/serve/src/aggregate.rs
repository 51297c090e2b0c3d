//! Declarative aggregation over risk scores: the `POST /aggregate` engine.
//!
//! Utilities don't only ask "top-K riskiest pipes" — they ask "total
//! at-risk length by material and decade per region". This module turns
//! that into a small declarative JSON pipeline (see `docs/AGGREGATE.md`):
//!
//! ```json
//! {"group_by": ["material", "decade"],
//!  "aggregates": [{"op": "count"}, {"op": "sum", "field": "length_m"}],
//!  "top_groups": 5,
//!  "budget": {"length_m": 5000}}
//! ```
//!
//! * **Group keys** over `region`, `material`, and `decade` (the
//!   construction-year cohort, e.g. `"1950s"`).
//! * **Operators** `count` / `sum` / `avg` / `min` / `max` over `risk`
//!   and `length_m`.
//! * **`top_groups`** limits the output to the N groups ranked by the
//!   first aggregate, descending.
//! * **`budget`** greedily fills a length budget by descending risk —
//!   the paper's length-constrained inspection budget as a query — and
//!   aggregates over only the selected pipes.
//!
//! The parser is strict and typed ([`AggregateError`], never panics — a
//! proptest battery mirrors the HTTP parser's), and execution is
//! **deterministic by construction** so the same query answers
//! byte-identically on a monolithic snapshot, an in-process sharded
//! server, and a federation front end:
//!
//! * Per-shard partial states accumulate in the shard's descending score
//!   order, then merge fold-left in sorted region-key order — f64
//!   addition order is pinned, exactly like the bounded k-way top-K
//!   merge pins tie order.
//! * The budget greedy consumes the merged descending-risk stream (ties
//!   break toward the earliest shard in sorted-key order) and stops at
//!   the first pipe that would overflow the budget.
//! * Federation backends answer `?partial=1` with their partial state;
//!   the wire format round-trips every f64 through shortest-round-trip
//!   decimal text, which re-parses to the exact same bits.
//!
//! Pipe length, material, and construction year ride in the snapshot's
//! well-known `pipe_attributes` summary section (see
//! [`pipefail_core::snapshot::ATTRIBUTES_SECTION`]); queries that need
//! them against a snapshot that lacks them are refused with a typed
//! error rather than answered with zeros.

use crate::scorer::Scorer;
use crate::shards::region_key;
use pipefail_network::attributes::Material;
use std::collections::HashMap;
use std::fmt;

/// Maximum JSON nesting depth the spec parser accepts — a pipeline spec
/// is three levels deep; anything deeper is hostile input, and a hard
/// cap keeps the recursive-descent parser off the guard page.
const MAX_JSON_DEPTH: usize = 32;

/// Why an aggregation request was refused. Every variant renders as a
/// one-line human-readable reason in the typed error body; parsing and
/// execution never panic on client input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggregateError {
    /// The body is not well-formed JSON (byte offset + reason).
    Syntax {
        /// Byte offset where parsing failed.
        offset: usize,
        /// What the parser expected or found.
        msg: &'static str,
    },
    /// JSON nesting exceeds the depth cap.
    TooDeep,
    /// The top-level value is not an object.
    NotAnObject,
    /// An object carries a key the spec does not define.
    UnknownKey(String),
    /// `group_by` is missing.
    MissingGroupBy,
    /// `group_by` is present but not a non-empty array of strings.
    BadGroupBy,
    /// A `group_by` entry is not one of `region` / `material` / `decade`.
    BadGroupKey(String),
    /// The same group key appears twice.
    DuplicateGroupKey(&'static str),
    /// `aggregates` is missing.
    MissingAggregates,
    /// `aggregates` is present but not a non-empty array of objects.
    BadAggregates,
    /// An aggregate's `op` is not `count`/`sum`/`avg`/`min`/`max`.
    BadOp(String),
    /// An aggregate's `field` is not `risk`/`length_m`.
    BadField(String),
    /// A non-`count` aggregate is missing its `field`.
    MissingField(&'static str),
    /// `count` takes no `field`.
    FieldOnCount,
    /// The same aggregate column appears twice.
    DuplicateAggregate(String),
    /// `top_groups` is not a positive integer.
    BadTopGroups,
    /// `budget` is not `{"length_m": <finite number ≥ 0>}`.
    BadBudget,
    /// The query needs pipe attributes (length/material/decade) but the
    /// snapshot carries no valid `pipe_attributes` section.
    NoAttributes,
    /// A federation backend's partial-state reply failed validation.
    BadPartial(&'static str),
}

impl fmt::Display for AggregateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggregateError::Syntax { offset, msg } => {
                write!(f, "malformed JSON at byte {offset}: {msg}")
            }
            AggregateError::TooDeep => write!(f, "JSON nested deeper than {MAX_JSON_DEPTH} levels"),
            AggregateError::NotAnObject => write!(f, "pipeline spec must be a JSON object"),
            AggregateError::UnknownKey(k) => write!(f, "unknown key {k:?}"),
            AggregateError::MissingGroupBy => write!(f, "missing \"group_by\""),
            AggregateError::BadGroupBy => {
                write!(f, "\"group_by\" must be a non-empty array of strings")
            }
            AggregateError::BadGroupKey(k) => write!(
                f,
                "unknown group key {k:?} (expected \"region\", \"material\", or \"decade\")"
            ),
            AggregateError::DuplicateGroupKey(k) => write!(f, "duplicate group key {k:?}"),
            AggregateError::MissingAggregates => write!(f, "missing \"aggregates\""),
            AggregateError::BadAggregates => {
                write!(f, "\"aggregates\" must be a non-empty array of objects")
            }
            AggregateError::BadOp(op) => write!(
                f,
                "unknown op {op:?} (expected \"count\", \"sum\", \"avg\", \"min\", or \"max\")"
            ),
            AggregateError::BadField(field) => {
                write!(f, "unknown field {field:?} (expected \"risk\" or \"length_m\")")
            }
            AggregateError::MissingField(op) => write!(f, "op {op:?} requires a \"field\""),
            AggregateError::FieldOnCount => write!(f, "op \"count\" takes no \"field\""),
            AggregateError::DuplicateAggregate(col) => {
                write!(f, "duplicate aggregate {col:?}")
            }
            AggregateError::BadTopGroups => {
                write!(f, "\"top_groups\" must be a positive integer")
            }
            AggregateError::BadBudget => {
                write!(f, "\"budget\" must be {{\"length_m\": <finite number >= 0>}}")
            }
            AggregateError::NoAttributes => write!(
                f,
                "query needs pipe attributes but the snapshot carries no pipe_attributes section"
            ),
            AggregateError::BadPartial(what) => {
                write!(f, "malformed backend partial: {what}")
            }
        }
    }
}

impl std::error::Error for AggregateError {}

// ---------------------------------------------------------------------------
// Minimal JSON value parser — strict, depth-capped, never panics.
// ---------------------------------------------------------------------------

/// A parsed JSON value. Numbers keep their exact `f64` bits: the token
/// text goes through `str::parse::<f64>`, which is the inverse of Rust's
/// shortest-round-trip `Display` — the property the federation wire
/// format relies on.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (finite — `1e999` is rejected, not `inf`).
    Num(f64),
    /// A string with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as a key-ordered-as-written list.
    Obj(Vec<(String, Json)>),
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn err<T>(&self, msg: &'static str) -> Result<T, AggregateError> {
        Err(AggregateError::Syntax { offset: self.pos, msg })
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8, msg: &'static str) -> Result<(), AggregateError> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(msg)
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, AggregateError> {
        if depth > MAX_JSON_DEPTH {
            return Err(AggregateError::TooDeep);
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal(b"true", Json::Bool(true)),
            Some(b'f') => self.literal(b"false", Json::Bool(false)),
            Some(b'n') => self.literal(b"null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => self.err("unexpected character"),
            None => self.err("unexpected end of input"),
        }
    }

    fn literal(&mut self, word: &'static [u8], value: Json) -> Result<Json, AggregateError> {
        if self.bytes[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.err("invalid literal")
        }
    }

    fn number(&mut self) -> Result<Json, AggregateError> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| AggregateError::Syntax { offset: start, msg: "invalid number" })?;
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            _ => Err(AggregateError::Syntax { offset: start, msg: "invalid number" }),
        }
    }

    fn string(&mut self) -> Result<String, AggregateError> {
        self.eat(b'"', "expected string")?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let high = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&high) {
                                // Surrogate pair: require \uXXXX low half.
                                if self.bytes.get(self.pos) != Some(&b'\\')
                                    || self.bytes.get(self.pos + 1) != Some(&b'u')
                                {
                                    return self.err("unpaired surrogate");
                                }
                                self.pos += 2;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return self.err("unpaired surrogate");
                                }
                                let code =
                                    0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(code)
                            } else {
                                char::from_u32(high)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return self.err("invalid unicode escape"),
                            }
                            continue;
                        }
                        _ => return self.err("invalid escape"),
                    }
                    self.pos += 1;
                }
                Some(&b) if b < 0x20 => return self.err("control character in string"),
                Some(_) => {
                    // Copy one UTF-8 scalar; invalid UTF-8 is an error.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| AggregateError::Syntax {
                            offset: self.pos,
                            msg: "invalid UTF-8",
                        })?;
                    let c = rest.chars().next().ok_or(AggregateError::Syntax {
                        offset: self.pos,
                        msg: "unterminated string",
                    })?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, AggregateError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.bytes.get(self.pos) {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return self.err("invalid unicode escape"),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn array(&mut self, depth: usize) -> Result<Json, AggregateError> {
        self.eat(b'[', "expected array")?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            out.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, AggregateError> {
        self.eat(b'{', "expected object")?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':'")?;
            let value = self.value(depth + 1)?;
            out.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

/// Parse one complete JSON document (trailing garbage is an error).
pub(crate) fn parse_json(body: &str) -> Result<Json, AggregateError> {
    let mut p = JsonParser { bytes: body.as_bytes(), pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing garbage after value");
    }
    Ok(value)
}

// ---------------------------------------------------------------------------
// The pipeline spec.
// ---------------------------------------------------------------------------

/// A grouping dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupKey {
    /// The shard's region routing key (e.g. `"region_a"`).
    Region,
    /// Pipe material code (e.g. `"CI"`, `"PVC"`).
    Material,
    /// Construction-year cohort, rendered like `"1950s"`.
    Decade,
}

impl GroupKey {
    /// The spec/output name of this key.
    pub fn name(self) -> &'static str {
        match self {
            GroupKey::Region => "region",
            GroupKey::Material => "material",
            GroupKey::Decade => "decade",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        match name {
            "region" => Some(GroupKey::Region),
            "material" => Some(GroupKey::Material),
            "decade" => Some(GroupKey::Decade),
            _ => None,
        }
    }
}

/// An aggregation operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggOp {
    /// Number of pipes in the group.
    Count,
    /// Sum of the field.
    Sum,
    /// Arithmetic mean of the field.
    Avg,
    /// Minimum of the field.
    Min,
    /// Maximum of the field.
    Max,
}

impl AggOp {
    /// The spec name of this operator.
    pub fn name(self) -> &'static str {
        match self {
            AggOp::Count => "count",
            AggOp::Sum => "sum",
            AggOp::Avg => "avg",
            AggOp::Min => "min",
            AggOp::Max => "max",
        }
    }
}

/// A field an operator can aggregate over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggField {
    /// The served risk score.
    Risk,
    /// Pipe length in metres (needs the snapshot's attribute section).
    LengthM,
}

impl AggField {
    /// The spec name of this field.
    pub fn name(self) -> &'static str {
        match self {
            AggField::Risk => "risk",
            AggField::LengthM => "length_m",
        }
    }
}

/// One aggregate column: an operator and (except for `count`) a field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aggregate {
    /// The operator.
    pub op: AggOp,
    /// The field; `None` exactly for [`AggOp::Count`].
    pub field: Option<AggField>,
}

impl Aggregate {
    /// The output column name: `count`, or `<op>_<field>` like
    /// `sum_length_m`.
    pub fn column(&self) -> String {
        match self.field {
            None => self.op.name().to_string(),
            Some(field) => format!("{}_{}", self.op.name(), field.name()),
        }
    }
}

/// A validated aggregation pipeline: group keys, aggregate columns, an
/// optional group limit, and an optional length budget.
///
/// Build one programmatically and round-trip it through the JSON wire
/// form, or parse client JSON directly with [`AggregateSpec::parse`].
///
/// # Examples
///
/// ```
/// use pipefail_serve::aggregate::{AggField, AggOp, AggregateSpec, GroupKey};
///
/// let spec = AggregateSpec::new()
///     .group_by(GroupKey::Material)
///     .group_by(GroupKey::Decade)
///     .aggregate(AggOp::Count, None)
///     .aggregate(AggOp::Sum, Some(AggField::LengthM))
///     .with_top_groups(5)
///     .with_budget(5000.0);
/// let parsed = AggregateSpec::parse(&spec.to_json()).unwrap();
/// assert_eq!(parsed, spec);
/// assert!(spec.needs_attributes());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateSpec {
    /// Grouping dimensions, in output order.
    pub group_by: Vec<GroupKey>,
    /// Aggregate columns, in output order.
    pub aggregates: Vec<Aggregate>,
    /// Keep only the N groups ranked by the first aggregate, descending.
    pub top_groups: Option<usize>,
    /// Greedy length budget in metres: fill by descending risk, stop at
    /// the first pipe that would overflow, aggregate over the selection.
    pub budget_length_m: Option<f64>,
}

impl Default for AggregateSpec {
    fn default() -> Self {
        Self::new()
    }
}

impl AggregateSpec {
    /// An empty pipeline; add keys and columns with the builder methods.
    /// An empty spec does not validate — [`AggregateSpec::parse`] of its
    /// JSON form reports what is missing.
    pub fn new() -> Self {
        Self {
            group_by: Vec::new(),
            aggregates: Vec::new(),
            top_groups: None,
            budget_length_m: None,
        }
    }

    /// Append a grouping dimension.
    #[must_use]
    pub fn group_by(mut self, key: GroupKey) -> Self {
        self.group_by.push(key);
        self
    }

    /// Append an aggregate column (`field` must be `None` exactly for
    /// [`AggOp::Count`] — validation happens in [`AggregateSpec::parse`]).
    #[must_use]
    pub fn aggregate(mut self, op: AggOp, field: Option<AggField>) -> Self {
        self.aggregates.push(Aggregate { op, field });
        self
    }

    /// Keep only the N groups ranked by the first aggregate, descending.
    #[must_use]
    pub fn with_top_groups(mut self, n: usize) -> Self {
        self.top_groups = Some(n);
        self
    }

    /// Aggregate over a greedy descending-risk selection that fills a
    /// length budget of `metres`.
    #[must_use]
    pub fn with_budget(mut self, metres: f64) -> Self {
        self.budget_length_m = Some(metres);
        self
    }

    /// Render the canonical JSON wire form (the body `POST /aggregate`
    /// accepts; `parse(to_json())` round-trips exactly).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"group_by\":[");
        for (i, key) in self.group_by.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(key.name());
            out.push('"');
        }
        out.push_str("],\"aggregates\":[");
        for (i, agg) in self.aggregates.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"op\":\"");
            out.push_str(agg.op.name());
            out.push('"');
            if let Some(field) = agg.field {
                out.push_str(",\"field\":\"");
                out.push_str(field.name());
                out.push('"');
            }
            out.push('}');
        }
        out.push(']');
        if let Some(n) = self.top_groups {
            out.push_str(&format!(",\"top_groups\":{n}"));
        }
        if let Some(b) = self.budget_length_m {
            out.push_str(&format!(",\"budget\":{{\"length_m\":{b}}}"));
        }
        out.push('}');
        out
    }

    /// Parse and strictly validate a pipeline spec. Unknown keys,
    /// missing sections, bad operators, duplicate columns, and malformed
    /// budgets are each a distinct [`AggregateError`].
    pub fn parse(body: &str) -> Result<Self, AggregateError> {
        let Json::Obj(pairs) = parse_json(body)? else {
            return Err(AggregateError::NotAnObject);
        };
        let mut group_by: Option<Vec<GroupKey>> = None;
        let mut aggregates: Option<Vec<Aggregate>> = None;
        let mut top_groups = None;
        let mut budget_length_m = None;
        for (key, value) in pairs {
            match key.as_str() {
                "group_by" => group_by = Some(Self::parse_group_by(value)?),
                "aggregates" => aggregates = Some(Self::parse_aggregates(value)?),
                "top_groups" => match value {
                    Json::Num(n) if n.fract() == 0.0 && (1.0..=1e9).contains(&n) => {
                        top_groups = Some(n as usize);
                    }
                    _ => return Err(AggregateError::BadTopGroups),
                },
                "budget" => {
                    let Json::Obj(fields) = value else {
                        return Err(AggregateError::BadBudget);
                    };
                    match fields.as_slice() {
                        [(name, Json::Num(metres))]
                            if name == "length_m" && metres.is_finite() && *metres >= 0.0 =>
                        {
                            budget_length_m = Some(*metres);
                        }
                        _ => return Err(AggregateError::BadBudget),
                    }
                }
                _ => return Err(AggregateError::UnknownKey(key)),
            }
        }
        Ok(Self {
            group_by: group_by.ok_or(AggregateError::MissingGroupBy)?,
            aggregates: aggregates.ok_or(AggregateError::MissingAggregates)?,
            top_groups,
            budget_length_m,
        })
    }

    fn parse_group_by(value: Json) -> Result<Vec<GroupKey>, AggregateError> {
        let Json::Arr(items) = value else {
            return Err(AggregateError::BadGroupBy);
        };
        if items.is_empty() {
            return Err(AggregateError::BadGroupBy);
        }
        let mut keys = Vec::with_capacity(items.len());
        for item in items {
            let Json::Str(name) = item else {
                return Err(AggregateError::BadGroupBy);
            };
            let key =
                GroupKey::parse(&name).ok_or(AggregateError::BadGroupKey(name))?;
            if keys.contains(&key) {
                return Err(AggregateError::DuplicateGroupKey(key.name()));
            }
            keys.push(key);
        }
        Ok(keys)
    }

    fn parse_aggregates(value: Json) -> Result<Vec<Aggregate>, AggregateError> {
        let Json::Arr(items) = value else {
            return Err(AggregateError::BadAggregates);
        };
        if items.is_empty() {
            return Err(AggregateError::BadAggregates);
        }
        let mut aggs: Vec<Aggregate> = Vec::with_capacity(items.len());
        for item in items {
            let Json::Obj(fields) = item else {
                return Err(AggregateError::BadAggregates);
            };
            let mut op = None;
            let mut field = None;
            for (name, value) in fields {
                match (name.as_str(), value) {
                    ("op", Json::Str(s)) => {
                        op = Some(match s.as_str() {
                            "count" => AggOp::Count,
                            "sum" => AggOp::Sum,
                            "avg" => AggOp::Avg,
                            "min" => AggOp::Min,
                            "max" => AggOp::Max,
                            _ => return Err(AggregateError::BadOp(s)),
                        });
                    }
                    ("op", _) => return Err(AggregateError::BadOp(String::new())),
                    ("field", Json::Str(s)) => {
                        field = Some(match s.as_str() {
                            "risk" => AggField::Risk,
                            "length_m" => AggField::LengthM,
                            _ => return Err(AggregateError::BadField(s)),
                        });
                    }
                    ("field", _) => return Err(AggregateError::BadField(String::new())),
                    _ => return Err(AggregateError::UnknownKey(name)),
                }
            }
            let op = op.ok_or(AggregateError::BadOp(String::new()))?;
            match (op, field) {
                (AggOp::Count, Some(_)) => return Err(AggregateError::FieldOnCount),
                (AggOp::Count, None) => {}
                (_, None) => return Err(AggregateError::MissingField(op.name())),
                (_, Some(_)) => {}
            }
            let agg = Aggregate { op, field };
            if aggs.contains(&agg) {
                return Err(AggregateError::DuplicateAggregate(agg.column()));
            }
            aggs.push(agg);
        }
        Ok(aggs)
    }

    /// True when executing this pipeline needs the snapshot's per-pipe
    /// attribute section (length, material, or construction year).
    pub fn needs_attributes(&self) -> bool {
        self.budget_length_m.is_some()
            || self
                .group_by
                .iter()
                .any(|k| matches!(k, GroupKey::Material | GroupKey::Decade))
            || self.aggregates.iter().any(|a| a.field == Some(AggField::LengthM))
    }
}

// ---------------------------------------------------------------------------
// Partial aggregate state and deterministic execution.
// ---------------------------------------------------------------------------

/// Running aggregate state for one group. All moments are tracked
/// unconditionally (they are seven numbers) so a partial can answer any
/// column set and `avg` derives as `sum/count` only at render time —
/// identical bits on every topology.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct GroupState {
    count: u64,
    sum_risk: f64,
    min_risk: f64,
    max_risk: f64,
    sum_len: f64,
    min_len: f64,
    max_len: f64,
}

impl GroupState {
    fn one(risk: f64, len: f64) -> Self {
        Self {
            count: 1,
            sum_risk: risk,
            min_risk: risk,
            max_risk: risk,
            sum_len: len,
            min_len: len,
            max_len: len,
        }
    }

    fn add(&mut self, risk: f64, len: f64) {
        self.count += 1;
        self.sum_risk += risk;
        self.min_risk = self.min_risk.min(risk);
        self.max_risk = self.max_risk.max(risk);
        self.sum_len += len;
        self.min_len = self.min_len.min(len);
        self.max_len = self.max_len.max(len);
    }

    /// Fold `other` into `self`. Callers fold partials left-to-right in
    /// sorted region-key order, which pins the f64 addition order.
    fn merge(&mut self, other: &GroupState) {
        self.count += other.count;
        self.sum_risk += other.sum_risk;
        self.min_risk = self.min_risk.min(other.min_risk);
        self.max_risk = self.max_risk.max(other.max_risk);
        self.sum_len += other.sum_len;
        self.min_len = self.min_len.min(other.min_len);
        self.max_len = self.max_len.max(other.max_len);
    }

    /// The value of one aggregate column over this group.
    fn value(&self, agg: &Aggregate) -> f64 {
        match (agg.op, agg.field) {
            (AggOp::Count, _) => self.count as f64,
            (AggOp::Sum, Some(AggField::Risk)) => self.sum_risk,
            (AggOp::Avg, Some(AggField::Risk)) => self.sum_risk / self.count as f64,
            (AggOp::Min, Some(AggField::Risk)) => self.min_risk,
            (AggOp::Max, Some(AggField::Risk)) => self.max_risk,
            (AggOp::Sum, Some(AggField::LengthM)) => self.sum_len,
            (AggOp::Avg, Some(AggField::LengthM)) => self.sum_len / self.count as f64,
            (AggOp::Min, Some(AggField::LengthM)) => self.min_len,
            (AggOp::Max, Some(AggField::LengthM)) => self.max_len,
            // Validation guarantees a field on every non-count op.
            (_, None) => f64::NAN,
        }
    }
}

/// One budget candidate: everything the global greedy needs to select,
/// group, and aggregate a pipe without its home shard.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Candidate {
    score: f64,
    length_m: f64,
    material: u8,
    laid_year: i32,
    region: String,
}

/// One shard's (or backend's) contribution to an aggregation: either
/// per-group partial states (no budget) or a bounded descending-risk
/// candidate stream (budget).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AggregatePartial {
    /// `(key values, state)` sorted by key values; empty in budget mode.
    groups: Vec<(Vec<String>, GroupState)>,
    /// Budget mode only: the shard's maximal descending-risk prefix whose
    /// cumulative length fits the budget, plus one sentinel entry (the
    /// first overflowing pipe — it can never be selected, but its
    /// presence lets the global greedy stop at the right pipe).
    candidates: Option<Vec<Candidate>>,
}

/// Result of the global budget greedy, rendered alongside the groups.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct BudgetSummary {
    budget_length_m: f64,
    selected: u64,
    total_length_m: f64,
}

fn decade_of(year: i32) -> String {
    format!("{}s", year.div_euclid(10) * 10)
}

/// Compute one scorer's partial for `spec`. The shard's group-key
/// `region` value is its region routing key, so a single-snapshot server
/// is indistinguishable from a one-shard set or a one-backend
/// federation.
pub(crate) fn shard_partial(
    spec: &AggregateSpec,
    scorer: &Scorer,
) -> Result<AggregatePartial, AggregateError> {
    let attrs = scorer.attributes();
    if spec.needs_attributes() && attrs.is_none() {
        return Err(AggregateError::NoAttributes);
    }
    let region = region_key(scorer.region());
    let entries = scorer.top_k(usize::MAX);

    if let Some(budget) = spec.budget_length_m {
        let attrs = attrs.expect("needs_attributes covers budget mode");
        let mut candidates = Vec::new();
        let mut cumulative = 0.0f64;
        for (i, entry) in entries.iter().enumerate() {
            let length_m = attrs.length_m(i);
            let candidate = Candidate {
                score: entry.score,
                length_m,
                material: attrs.material_index(i) as u8,
                laid_year: attrs.laid_year(i),
                region: region.clone(),
            };
            if cumulative + length_m <= budget {
                cumulative += length_m;
                candidates.push(candidate);
            } else {
                // The sentinel: first pipe past the shard-local budget
                // prefix. It always overflows globally too, so the greedy
                // stops on it; it is never selected.
                candidates.push(candidate);
                break;
            }
        }
        return Ok(AggregatePartial { groups: Vec::new(), candidates: Some(candidates) });
    }

    let mut groups: Vec<(Vec<String>, GroupState)> = Vec::new();
    let mut index: HashMap<Vec<String>, usize> = HashMap::new();
    for (i, entry) in entries.iter().enumerate() {
        let key: Vec<String> = spec
            .group_by
            .iter()
            .map(|k| match k {
                GroupKey::Region => region.clone(),
                GroupKey::Material => attrs
                    .expect("needs_attributes covers material")
                    .material(i)
                    .code()
                    .to_string(),
                GroupKey::Decade => {
                    decade_of(attrs.expect("needs_attributes covers decade").laid_year(i))
                }
            })
            .collect();
        let length_m = attrs.map_or(0.0, |a| a.length_m(i));
        match index.get(&key) {
            Some(&at) => groups[at].1.add(entry.score, length_m),
            None => {
                index.insert(key.clone(), groups.len());
                groups.push((key, GroupState::one(entry.score, length_m)));
            }
        }
    }
    groups.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(AggregatePartial { groups, candidates: None })
}

/// Merge partials fold-left in the order given (callers pass sorted
/// region-key order) into the final `(groups, budget summary)` pair.
pub(crate) fn merge_partials(
    spec: &AggregateSpec,
    partials: &[AggregatePartial],
) -> (Vec<(Vec<String>, GroupState)>, Option<BudgetSummary>) {
    if let Some(budget) = spec.budget_length_m {
        return merge_budget(spec, partials, budget);
    }
    (fold_groups(partials), None)
}

/// Fold every partial's group states left-to-right into one key-sorted
/// group table; callers fix the partial order (sorted region-key) so the
/// f64 addition order is pinned.
fn fold_groups(partials: &[AggregatePartial]) -> Vec<(Vec<String>, GroupState)> {
    let mut groups: Vec<(Vec<String>, GroupState)> = Vec::new();
    let mut index: HashMap<Vec<String>, usize> = HashMap::new();
    for partial in partials {
        for (key, state) in &partial.groups {
            match index.get(key) {
                Some(&at) => groups[at].1.merge(state),
                None => {
                    index.insert(key.clone(), groups.len());
                    groups.push((key.clone(), state.clone()));
                }
            }
        }
    }
    groups.sort_by(|a, b| a.0.cmp(&b.0));
    groups
}

/// Collapse several shard partials into **one** partial — the
/// `?partial=1` answer of a server that itself runs multiple shards.
/// Group states fold in the given (sorted-key) order; budget candidate
/// streams k-way-merge into one descending-score stream (ties toward the
/// earliest stream), which preserves every shard's prefix-then-sentinel
/// ordering so the front end's global greedy still stops correctly.
pub(crate) fn merge_to_partial(
    spec: &AggregateSpec,
    partials: &[AggregatePartial],
) -> AggregatePartial {
    if spec.budget_length_m.is_none() {
        return AggregatePartial { groups: fold_groups(partials), candidates: None };
    }
    let streams: Vec<&[Candidate]> = partials
        .iter()
        .map(|p| p.candidates.as_deref().unwrap_or(&[]))
        .collect();
    let mut cursor = vec![0usize; streams.len()];
    let total: usize = streams.iter().map(|s| s.len()).sum();
    let mut merged = Vec::with_capacity(total);
    while merged.len() < total {
        let mut best: Option<usize> = None;
        for (s, stream) in streams.iter().enumerate() {
            if let Some(c) = stream.get(cursor[s]) {
                // Strict `>` keeps the earliest stream on ties.
                if best.is_none_or(|b| c.score > streams[b][cursor[b]].score) {
                    best = Some(s);
                }
            }
        }
        let Some(s) = best else { break };
        merged.push(streams[s][cursor[s]].clone());
        cursor[s] += 1;
    }
    AggregatePartial { groups: Vec::new(), candidates: Some(merged) }
}

/// The global budget greedy: k-way-merge the candidate streams by
/// descending score (ties toward the earliest stream, exactly like the
/// top-K merge), select while the cumulative length fits, stop at the
/// first pipe that would overflow, and aggregate the selection in
/// selection order.
fn merge_budget(
    spec: &AggregateSpec,
    partials: &[AggregatePartial],
    budget: f64,
) -> (Vec<(Vec<String>, GroupState)>, Option<BudgetSummary>) {
    let streams: Vec<&[Candidate]> = partials
        .iter()
        .map(|p| p.candidates.as_deref().unwrap_or(&[]))
        .collect();
    let mut cursor = vec![0usize; streams.len()];
    let mut groups: Vec<(Vec<String>, GroupState)> = Vec::new();
    let mut index: HashMap<Vec<String>, usize> = HashMap::new();
    let mut selected = 0u64;
    let mut total_length = 0.0f64;
    loop {
        // Next pipe in global descending-risk order: the best live head.
        // Strict `>` keeps the earliest stream on ties.
        let mut best: Option<(usize, &Candidate)> = None;
        for (s, stream) in streams.iter().enumerate() {
            if let Some(c) = stream.get(cursor[s]) {
                if best.is_none_or(|(_, b)| c.score > b.score) {
                    best = Some((s, c));
                }
            }
        }
        let Some((s, c)) = best else { break };
        if total_length + c.length_m > budget {
            break;
        }
        cursor[s] += 1;
        selected += 1;
        total_length += c.length_m;
        let key: Vec<String> = spec
            .group_by
            .iter()
            .map(|k| match k {
                GroupKey::Region => c.region.clone(),
                GroupKey::Material => {
                    Material::ALL[usize::from(c.material)].code().to_string()
                }
                GroupKey::Decade => decade_of(c.laid_year),
            })
            .collect();
        match index.get(&key) {
            Some(&at) => groups[at].1.add(c.score, c.length_m),
            None => {
                index.insert(key.clone(), groups.len());
                groups.push((key, GroupState::one(c.score, c.length_m)));
            }
        }
    }
    groups.sort_by(|a, b| a.0.cmp(&b.0));
    (
        groups,
        Some(BudgetSummary { budget_length_m: budget, selected, total_length_m: total_length }),
    )
}

// ---------------------------------------------------------------------------
// Rendering — one canonical renderer for every topology.
// ---------------------------------------------------------------------------

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render a column value: counts as integers, everything else through
/// Rust's shortest-round-trip f64 formatting.
fn render_value(agg: &Aggregate, state: &GroupState) -> String {
    if agg.op == AggOp::Count {
        return state.count.to_string();
    }
    format!("{}", state.value(agg))
}

/// Render the final response body. Group order is key-ascending; with
/// `top_groups` the surviving groups are ranked by the first aggregate
/// descending (ties toward the smaller key).
pub(crate) fn render_aggregate(
    spec: &AggregateSpec,
    mut groups: Vec<(Vec<String>, GroupState)>,
    budget: Option<BudgetSummary>,
) -> String {
    if let Some(n) = spec.top_groups {
        let first = &spec.aggregates[0];
        groups.sort_by(|a, b| {
            b.1.value(first)
                .total_cmp(&a.1.value(first))
                .then_with(|| a.0.cmp(&b.0))
        });
        groups.truncate(n);
    }
    let mut out = String::from("{\"groups\":[");
    for (i, (key, state)) in groups.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"key\":{");
        for (j, (name, value)) in spec.group_by.iter().zip(key).enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":\"{}\"", name.name(), escape_json(value)));
        }
        out.push('}');
        for agg in &spec.aggregates {
            out.push_str(&format!(",\"{}\":{}", agg.column(), render_value(agg, state)));
        }
        out.push('}');
    }
    out.push(']');
    if let Some(b) = budget {
        out.push_str(&format!(
            ",\"budget\":{{\"length_m\":{},\"selected\":{},\"total_length_m\":{}}}",
            b.budget_length_m, b.selected, b.total_length_m
        ));
    }
    out.push('}');
    out
}

// ---------------------------------------------------------------------------
// The federation wire format for partials.
// ---------------------------------------------------------------------------

/// Render a partial for the `?partial=1` wire. Every f64 goes through
/// shortest-round-trip text, so the front end recovers the exact bits.
pub(crate) fn render_partial(partial: &AggregatePartial) -> String {
    if let Some(candidates) = &partial.candidates {
        let mut out = String::from("{\"candidates\":[");
        for (i, c) in candidates.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "[{},{},{},{},\"{}\"]",
                c.score,
                c.length_m,
                c.material,
                c.laid_year,
                escape_json(&c.region)
            ));
        }
        out.push_str("]}");
        return out;
    }
    let mut out = String::from("{\"groups\":[");
    for (i, (key, s)) in partial.groups.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"key\":[");
        for (j, value) in key.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\"", escape_json(value)));
        }
        out.push_str(&format!(
            "],\"state\":[{},{},{},{},{},{},{}]}}",
            s.count, s.sum_risk, s.min_risk, s.max_risk, s.sum_len, s.min_len, s.max_len
        ));
    }
    out.push_str("]}");
    out
}

fn partial_num(v: &Json, what: &'static str) -> Result<f64, AggregateError> {
    match v {
        Json::Num(n) => Ok(*n),
        _ => Err(AggregateError::BadPartial(what)),
    }
}

fn partial_count(v: &Json) -> Result<u64, AggregateError> {
    match v {
        Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 9e15 => Ok(*n as u64),
        _ => Err(AggregateError::BadPartial("count must be a non-negative integer")),
    }
}

/// Parse and validate a backend's `?partial=1` reply against `spec` —
/// budget specs must answer candidates, everything else group states.
pub(crate) fn parse_partial(
    spec: &AggregateSpec,
    body: &str,
) -> Result<AggregatePartial, AggregateError> {
    let Json::Obj(pairs) = parse_json(body)? else {
        return Err(AggregateError::BadPartial("not an object"));
    };
    let [(key, value)] = pairs.as_slice() else {
        return Err(AggregateError::BadPartial("expected exactly one of groups/candidates"));
    };
    match (key.as_str(), spec.budget_length_m.is_some()) {
        ("candidates", true) => {
            let Json::Arr(items) = value else {
                return Err(AggregateError::BadPartial("candidates must be an array"));
            };
            let mut candidates = Vec::with_capacity(items.len());
            for item in items {
                let Json::Arr(parts) = item else {
                    return Err(AggregateError::BadPartial("candidate must be an array"));
                };
                let [score, length, material, year, region] = parts.as_slice() else {
                    return Err(AggregateError::BadPartial("candidate must have 5 elements"));
                };
                let score = partial_num(score, "candidate score")?;
                let length_m = partial_num(length, "candidate length")?;
                if length_m < 0.0 || !length_m.is_finite() {
                    return Err(AggregateError::BadPartial("candidate length out of range"));
                }
                let material = match material {
                    Json::Num(m)
                        if m.fract() == 0.0
                            && *m >= 0.0
                            && (*m as usize) < Material::ALL.len() =>
                    {
                        *m as u8
                    }
                    _ => return Err(AggregateError::BadPartial("candidate material")),
                };
                let laid_year = match year {
                    Json::Num(y)
                        if y.fract() == 0.0
                            && *y >= f64::from(i32::MIN)
                            && *y <= f64::from(i32::MAX) =>
                    {
                        *y as i32
                    }
                    _ => return Err(AggregateError::BadPartial("candidate year")),
                };
                let Json::Str(region) = region else {
                    return Err(AggregateError::BadPartial("candidate region"));
                };
                candidates.push(Candidate {
                    score,
                    length_m,
                    material,
                    laid_year,
                    region: region.clone(),
                });
            }
            Ok(AggregatePartial { groups: Vec::new(), candidates: Some(candidates) })
        }
        ("groups", false) => {
            let Json::Arr(items) = value else {
                return Err(AggregateError::BadPartial("groups must be an array"));
            };
            let mut groups = Vec::with_capacity(items.len());
            for item in items {
                let Json::Obj(fields) = item else {
                    return Err(AggregateError::BadPartial("group must be an object"));
                };
                let [(k1, key_json), (k2, state_json)] = fields.as_slice() else {
                    return Err(AggregateError::BadPartial("group must have key and state"));
                };
                if k1 != "key" || k2 != "state" {
                    return Err(AggregateError::BadPartial("group must have key and state"));
                }
                let Json::Arr(key_items) = key_json else {
                    return Err(AggregateError::BadPartial("group key must be an array"));
                };
                if key_items.len() != spec.group_by.len() {
                    return Err(AggregateError::BadPartial("group key arity mismatch"));
                }
                let mut key = Vec::with_capacity(key_items.len());
                for item in key_items {
                    let Json::Str(s) = item else {
                        return Err(AggregateError::BadPartial("group key must be strings"));
                    };
                    key.push(s.clone());
                }
                let Json::Arr(state_items) = state_json else {
                    return Err(AggregateError::BadPartial("group state must be an array"));
                };
                let [count, sum_risk, min_risk, max_risk, sum_len, min_len, max_len] =
                    state_items.as_slice()
                else {
                    return Err(AggregateError::BadPartial("group state must have 7 values"));
                };
                groups.push((
                    key,
                    GroupState {
                        count: partial_count(count)?,
                        sum_risk: partial_num(sum_risk, "sum_risk")?,
                        min_risk: partial_num(min_risk, "min_risk")?,
                        max_risk: partial_num(max_risk, "max_risk")?,
                        sum_len: partial_num(sum_len, "sum_len")?,
                        min_len: partial_num(min_len, "min_len")?,
                        max_len: partial_num(max_len, "max_len")?,
                    },
                ));
            }
            Ok(AggregatePartial { groups, candidates: None })
        }
        ("candidates", false) | ("groups", true) => {
            Err(AggregateError::BadPartial("partial mode does not match the spec"))
        }
        _ => Err(AggregateError::BadPartial("expected groups or candidates")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefail_core::model::{RiskRanking, RiskScore};
    use pipefail_core::snapshot::{attributes_section, Snapshot};
    use pipefail_network::ids::PipeId;
    use proptest::prelude::*;

    /// A scorer with attributes: `n` pipes, descending scores from
    /// `base`, deterministic lengths / materials / years derived from
    /// the index.
    fn scorer_with_attrs(region: &str, n: u32, base: f64) -> Scorer {
        let ranking = RiskRanking::new(
            (0..n)
                .map(|i| RiskScore {
                    pipe: PipeId(i),
                    score: base - f64::from(i) / f64::from(n.max(1)),
                })
                .collect(),
        );
        let mut snap = Snapshot::new("DPMHBP", region, 7, &ranking);
        snap.push_section(attributes_section(
            (0..n).map(|i| 10.0 + f64::from(i % 7) * 5.0).collect(),
            (0..n).map(|i| f64::from(i % 9)).collect(),
            (0..n).map(|i| f64::from(1900 + (i % 12) * 10)).collect(),
        ));
        Scorer::new(snap).expect("valid snapshot")
    }

    fn spec_json(json: &str) -> AggregateSpec {
        AggregateSpec::parse(json).expect("valid spec")
    }

    #[test]
    fn builder_round_trips_through_json() {
        let spec = AggregateSpec::new()
            .group_by(GroupKey::Region)
            .group_by(GroupKey::Material)
            .aggregate(AggOp::Count, None)
            .aggregate(AggOp::Avg, Some(AggField::Risk))
            .aggregate(AggOp::Sum, Some(AggField::LengthM))
            .with_top_groups(3)
            .with_budget(1234.5);
        assert_eq!(AggregateSpec::parse(&spec.to_json()).unwrap(), spec);
        // Minimal spec too.
        let minimal = AggregateSpec::new()
            .group_by(GroupKey::Region)
            .aggregate(AggOp::Count, None);
        assert_eq!(AggregateSpec::parse(&minimal.to_json()).unwrap(), minimal);
        assert!(!minimal.needs_attributes());
    }

    #[test]
    fn every_validation_error_is_typed() {
        use AggregateError as E;
        let cases: Vec<(&str, E)> = vec![
            ("nope", E::Syntax { offset: 0, msg: "invalid literal" }),
            ("[1]", E::NotAnObject),
            ("{}", E::MissingGroupBy),
            (r#"{"group_by":["region"]}"#, E::MissingAggregates),
            (r#"{"group_by":[],"aggregates":[{"op":"count"}]}"#, E::BadGroupBy),
            (r#"{"group_by":"region","aggregates":[{"op":"count"}]}"#, E::BadGroupBy),
            (
                r#"{"group_by":["soil"],"aggregates":[{"op":"count"}]}"#,
                E::BadGroupKey("soil".into()),
            ),
            (
                r#"{"group_by":["region","region"],"aggregates":[{"op":"count"}]}"#,
                E::DuplicateGroupKey("region"),
            ),
            (r#"{"group_by":["region"],"aggregates":[]}"#, E::BadAggregates),
            (r#"{"group_by":["region"],"aggregates":[7]}"#, E::BadAggregates),
            (
                r#"{"group_by":["region"],"aggregates":[{"op":"median","field":"risk"}]}"#,
                E::BadOp("median".into()),
            ),
            (
                r#"{"group_by":["region"],"aggregates":[{"op":"sum","field":"diameter"}]}"#,
                E::BadField("diameter".into()),
            ),
            (
                r#"{"group_by":["region"],"aggregates":[{"op":"sum"}]}"#,
                E::MissingField("sum"),
            ),
            (
                r#"{"group_by":["region"],"aggregates":[{"op":"count","field":"risk"}]}"#,
                E::FieldOnCount,
            ),
            (
                r#"{"group_by":["region"],"aggregates":[{"op":"count"},{"op":"count"}]}"#,
                E::DuplicateAggregate("count".into()),
            ),
            (
                r#"{"group_by":["region"],"aggregates":[{"op":"count"}],"top_groups":0}"#,
                E::BadTopGroups,
            ),
            (
                r#"{"group_by":["region"],"aggregates":[{"op":"count"}],"top_groups":1.5}"#,
                E::BadTopGroups,
            ),
            (
                r#"{"group_by":["region"],"aggregates":[{"op":"count"}],"budget":5}"#,
                E::BadBudget,
            ),
            (
                r#"{"group_by":["region"],"aggregates":[{"op":"count"}],"budget":{"length_m":-1}}"#,
                E::BadBudget,
            ),
            (
                r#"{"group_by":["region"],"aggregates":[{"op":"count"}],"mystery":1}"#,
                E::UnknownKey("mystery".into()),
            ),
        ];
        for (body, expected) in cases {
            assert_eq!(AggregateSpec::parse(body), Err(expected.clone()), "{body}");
        }
    }

    #[test]
    fn grouping_and_rendering_are_deterministic() {
        let spec = spec_json(
            r#"{"group_by":["material"],"aggregates":[{"op":"count"},{"op":"sum","field":"length_m"},{"op":"avg","field":"risk"}]}"#,
        );
        let s = scorer_with_attrs("Region A", 18, 1.0);
        let partial = shard_partial(&spec, &s).expect("partial");
        let (groups, budget) = merge_partials(&spec, &[partial]);
        assert!(budget.is_none());
        let body = render_aggregate(&spec, groups, budget);
        // 18 pipes over 9 materials = 2 each; group order is key-ascending.
        assert!(body.starts_with("{\"groups\":[{\"key\":{\"material\":\""));
        assert_eq!(body.matches("\"count\":2").count(), 9, "{body}");
        // Rendering twice gives identical bytes.
        let partial2 = shard_partial(&spec, &s).expect("partial");
        let (groups2, b2) = merge_partials(&spec, &[partial2]);
        assert_eq!(body, render_aggregate(&spec, groups2, b2));
    }

    #[test]
    fn region_only_spec_works_without_attributes() {
        let ranking = RiskRanking::new(
            (0..5u32)
                .map(|i| RiskScore { pipe: PipeId(i), score: 1.0 - f64::from(i) / 10.0 })
                .collect(),
        );
        let s = Scorer::new(Snapshot::new("DPMHBP", "Region A", 7, &ranking)).expect("valid snapshot");
        let spec = spec_json(
            r#"{"group_by":["region"],"aggregates":[{"op":"count"},{"op":"max","field":"risk"}]}"#,
        );
        let partial = shard_partial(&spec, &s).expect("no attributes needed");
        let (groups, _) = merge_partials(&spec, &[partial]);
        let body = render_aggregate(&spec, groups, None);
        assert_eq!(
            body,
            "{\"groups\":[{\"key\":{\"region\":\"region_a\"},\"count\":5,\"max_risk\":1}]}"
        );
        // But a length query against the same snapshot is refused, typed.
        let needs = spec_json(
            r#"{"group_by":["region"],"aggregates":[{"op":"sum","field":"length_m"}]}"#,
        );
        assert_eq!(shard_partial(&needs, &s), Err(AggregateError::NoAttributes));
    }

    #[test]
    fn top_groups_ranks_by_first_aggregate_descending() {
        let spec = spec_json(
            r#"{"group_by":["decade"],"aggregates":[{"op":"sum","field":"length_m"},{"op":"count"}],"top_groups":2}"#,
        );
        let s = scorer_with_attrs("Region A", 24, 1.0);
        let partial = shard_partial(&spec, &s).expect("partial");
        let (groups, _) = merge_partials(&spec, std::slice::from_ref(&partial));
        let full: Vec<(Vec<String>, f64)> = groups
            .iter()
            .map(|(k, st)| (k.clone(), st.value(&spec.aggregates[0])))
            .collect();
        let mut ranked = full.clone();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let body = render_aggregate(&spec, groups, None);
        // The first rendered group is the top-ranked one.
        let first_key = format!("{{\"key\":{{\"decade\":\"{}\"}}", ranked[0].0[0]);
        assert!(body.contains(&first_key), "{body} missing {first_key}");
        assert_eq!(body.matches("\"key\"").count(), 2, "{body}");
    }

    #[test]
    fn budget_greedy_selects_descending_and_stops_at_first_overflow() {
        // 4 pipes, lengths 10/10/25/10, budget 30: picks rank 0 (10),
        // rank 1 (10), then rank 2 needs 25 → overflow at 45 > 30 → STOP
        // (rank 3 would fit but greedy stops at the first overflow).
        let ranking = RiskRanking::new(
            (0..4u32)
                .map(|i| RiskScore { pipe: PipeId(i), score: 1.0 - f64::from(i) / 10.0 })
                .collect(),
        );
        let mut snap = Snapshot::new("DPMHBP", "Region A", 7, &ranking);
        snap.push_section(attributes_section(
            vec![10.0, 10.0, 25.0, 10.0],
            vec![0.0, 0.0, 1.0, 1.0],
            vec![1950.0, 1950.0, 1960.0, 1960.0],
        ));
        let s = Scorer::new(snap).expect("valid snapshot");
        let spec = spec_json(
            r#"{"group_by":["region"],"aggregates":[{"op":"count"},{"op":"sum","field":"length_m"}],"budget":{"length_m":30}}"#,
        );
        let partial = shard_partial(&spec, &s).expect("partial");
        let (groups, budget) = merge_partials(&spec, &[partial]);
        let body = render_aggregate(&spec, groups, budget);
        assert_eq!(
            body,
            "{\"groups\":[{\"key\":{\"region\":\"region_a\"},\"count\":2,\"sum_length_m\":20}],\
             \"budget\":{\"length_m\":30,\"selected\":2,\"total_length_m\":20}}"
        );
    }

    #[test]
    fn budget_candidates_are_prefix_plus_sentinel() {
        let s = scorer_with_attrs("Region A", 50, 1.0);
        let spec = spec_json(
            r#"{"group_by":["region"],"aggregates":[{"op":"count"}],"budget":{"length_m":100}}"#,
        );
        let partial = shard_partial(&spec, &s).expect("partial");
        let candidates = partial.candidates.as_ref().expect("budget mode");
        // The prefix fits the budget; prefix + sentinel overflows it.
        let lengths: Vec<f64> = candidates.iter().map(|c| c.length_m).collect();
        let prefix: f64 = lengths[..lengths.len() - 1].iter().sum();
        assert!(prefix <= 100.0, "{lengths:?}");
        assert!(prefix + lengths[lengths.len() - 1] > 100.0, "{lengths:?}");
        // Candidates stay in descending score order.
        assert!(candidates.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn sharded_merge_is_byte_identical_to_sequential_reference() {
        // The documented canonical computation, implemented independently:
        // per shard in entry order, fold-left in sorted-key order.
        let shards = [
            scorer_with_attrs("Region B", 13, 1.0),
            scorer_with_attrs("Region A", 17, 0.8),
            scorer_with_attrs("Region C", 7, 1.2),
        ];
        // Sorted-key order: region_a, region_b, region_c.
        let mut ordered: Vec<&Scorer> = shards.iter().collect();
        ordered.sort_by_key(|s| region_key(s.region()));

        let spec = spec_json(
            r#"{"group_by":["material","decade"],"aggregates":[{"op":"count"},{"op":"sum","field":"length_m"},{"op":"avg","field":"risk"},{"op":"min","field":"risk"},{"op":"max","field":"length_m"}]}"#,
        );
        let partials: Vec<AggregatePartial> = ordered
            .iter()
            .map(|s| shard_partial(&spec, s).expect("partial"))
            .collect();
        let (groups, budget) = merge_partials(&spec, &partials);
        let body = render_aggregate(&spec, groups, budget);

        // Reference: naive nested loops, no shared merge code.
        let mut reference: Vec<(Vec<String>, Vec<f64>)> = Vec::new(); // key -> [count,sum_risk,min_risk,max_risk,sum_len,min_len,max_len]
        for s in &ordered {
            let attrs = s.attributes().expect("attrs");
            for (i, e) in s.top_k(usize::MAX).iter().enumerate() {
                let key = vec![
                    attrs.material(i).code().to_string(),
                    decade_of(attrs.laid_year(i)),
                ];
                let len = attrs.length_m(i);
                match reference.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, st)) => {
                        st[0] += 1.0;
                        st[1] += e.score;
                        st[2] = st[2].min(e.score);
                        st[3] = st[3].max(e.score);
                        st[4] += len;
                        st[5] = st[5].min(len);
                        st[6] = st[6].max(len);
                    }
                    None => reference.push((
                        key,
                        vec![1.0, e.score, e.score, e.score, len, len, len],
                    )),
                }
            }
        }
        reference.sort_by(|a, b| a.0.cmp(&b.0));
        let mut expected = String::from("{\"groups\":[");
        for (i, (key, st)) in reference.iter().enumerate() {
            if i > 0 {
                expected.push(',');
            }
            expected.push_str(&format!(
                "{{\"key\":{{\"material\":\"{}\",\"decade\":\"{}\"}},\"count\":{},\"sum_length_m\":{},\"avg_risk\":{},\"min_risk\":{},\"max_length_m\":{}}}",
                key[0], key[1], st[0] as u64, st[4], st[1] / st[0], st[2], st[6]
            ));
        }
        expected.push_str("]}");
        assert_eq!(body, expected);
    }

    #[test]
    fn wire_partial_round_trips_exact_bits() {
        let spec_groups = spec_json(
            r#"{"group_by":["region","material"],"aggregates":[{"op":"sum","field":"risk"}]}"#,
        );
        let s = scorer_with_attrs("Region A", 23, 0.987654321);
        let partial = shard_partial(&spec_groups, &s).expect("partial");
        let wire = render_partial(&partial);
        let back = parse_partial(&spec_groups, &wire).expect("round trip");
        assert_eq!(back, partial);

        let spec_budget = spec_json(
            r#"{"group_by":["decade"],"aggregates":[{"op":"count"}],"budget":{"length_m":333.33}}"#,
        );
        let partial = shard_partial(&spec_budget, &s).expect("partial");
        let wire = render_partial(&partial);
        let back = parse_partial(&spec_budget, &wire).expect("round trip");
        assert_eq!(back, partial);

        // Mode mismatch is refused.
        assert!(parse_partial(&spec_budget, &render_partial(&back)).is_ok());
        let groups_wire = render_partial(&shard_partial(&spec_groups, &s).unwrap());
        assert!(matches!(
            parse_partial(&spec_budget, &groups_wire),
            Err(AggregateError::BadPartial(_))
        ));
    }

    #[test]
    fn json_parser_handles_escapes_and_rejects_garbage() {
        assert_eq!(
            parse_json(r#""a\"b\\c\u0041\ud83d\ude00""#),
            Ok(Json::Str("a\"b\\cA😀".into()))
        );
        assert_eq!(parse_json("3.5e2"), Ok(Json::Num(350.0)));
        for bad in [
            "", "{", "[", "\"", "{\"a\"}", "[1,]", "{\"a\":1,}", "1e999", "nul",
            "\"\\x\"", "\"\\ud800\"", "[1] []", "\u{0007}",
        ] {
            assert!(parse_json(bad).is_err(), "{bad:?} must not parse");
        }
        // Depth cap: deeply nested arrays are a typed error, not a stack
        // overflow.
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        assert_eq!(parse_json(&deep), Err(AggregateError::TooDeep));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The spec parser never panics on arbitrary bytes (the same
        /// contract the HTTP request parser proves).
        #[test]
        fn spec_parser_never_panics_on_arbitrary_input(
            bytes in proptest::collection::vec(0u16..256, 0..257),
        ) {
            let raw: Vec<u8> = bytes.iter().map(|b| *b as u8).collect();
            let body = String::from_utf8_lossy(&raw);
            let _ = AggregateSpec::parse(&body);
        }

        /// Nor on inputs that are at least JSON-shaped.
        #[test]
        fn spec_parser_never_panics_on_json_shaped_input(
            keys in proptest::collection::vec(proptest::collection::vec(0u8..27, 0..13), 0..6),
            nums in proptest::collection::vec(-1e9f64..1e9, 0..6),
        ) {
            let mut body = String::from("{");
            for (i, k) in keys.iter().enumerate() {
                if i > 0 { body.push(','); }
                let k: String = k
                    .iter()
                    .map(|c| if *c == 26 { '_' } else { char::from(b'a' + c) })
                    .collect();
                let v = nums.get(i).copied().unwrap_or(1.0);
                body.push_str(&format!("\"{k}\":{v}"));
            }
            body.push('}');
            let _ = AggregateSpec::parse(&body);
        }

        /// Splitting one attribute-tagged table across K shards and
        /// merging partials is byte-identical to the same computation
        /// with every shard in one sequential pass — the core identity
        /// the sharded and federated topologies rely on. Scores come
        /// from a tiny set so cross-shard ties are common.
        #[test]
        fn split_and_merge_is_byte_identical_to_unsplit(
            sizes in proptest::collection::vec(0u32..12, 1..5),
            picks in proptest::collection::vec(0usize..4, 60..61),
            budget in proptest::option::of(0.0f64..400.0),
            top in proptest::option::of(1usize..5),
        ) {
            let score_of = |p: usize| [0.9, 0.5, 0.5, 0.1][p];
            let mut spec = AggregateSpec::new()
                .group_by(GroupKey::Material)
                .group_by(GroupKey::Decade)
                .aggregate(AggOp::Count, None)
                .aggregate(AggOp::Sum, Some(AggField::LengthM))
                .aggregate(AggOp::Avg, Some(AggField::Risk));
            if let Some(b) = budget { spec = spec.with_budget(b); }
            if let Some(t) = top { spec = spec.with_top_groups(t); }

            let mut next = 0usize;
            let mut make = |region: &str, n: u32| {
                let ranking = RiskRanking::new({
                    let mut scores: Vec<RiskScore> = (0..n)
                        .map(|i| {
                            let s = score_of(picks[next % picks.len()]);
                            next += 1;
                            RiskScore { pipe: PipeId(i), score: s }
                        })
                        .collect();
                    scores.sort_by(|a, b| b.score.total_cmp(&a.score));
                    scores
                });
                let mut snap = Snapshot::new("DPMHBP", region, 7, &ranking);
                snap.push_section(attributes_section(
                    (0..n).map(|i| 5.0 + f64::from(i % 5) * 12.5).collect(),
                    (0..n).map(|i| f64::from(i % 9)).collect(),
                    (0..n).map(|i| f64::from(1900 + (i % 12) * 10)).collect(),
                ));
                Scorer::new(snap).expect("valid snapshot")
            };
            let shards: Vec<Scorer> = sizes
                .iter()
                .enumerate()
                .map(|(s, &n)| make(&format!("Region {s}"), n))
                .collect();

            // Canonical: per-shard partials merged in key order (regions
            // are already sorted: region_0 < region_1 < ...).
            let partials: Vec<AggregatePartial> = shards
                .iter()
                .map(|s| shard_partial(&spec, s).expect("partial"))
                .collect();
            let (groups, b) = merge_partials(&spec, &partials);
            let merged_body = render_aggregate(&spec, groups, b);

            // Sequential: the same partials, but each round-tripped
            // through the federation wire before merging — the federated
            // front end's exact path.
            let rewired: Vec<AggregatePartial> = partials
                .iter()
                .map(|p| parse_partial(&spec, &render_partial(p)).expect("wire round trip"))
                .collect();
            let (groups2, b2) = merge_partials(&spec, &rewired);
            prop_assert_eq!(merged_body, render_aggregate(&spec, groups2, b2));
        }
    }
}
