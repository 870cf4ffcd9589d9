//! A text front-end for the DSL.
//!
//! The paper embeds Snowflake in Python, where programs are *data* —
//! stencils can be built at run time, stored, and shipped around. A Rust
//! embedding is compiled, so this module restores that dynamism with a
//! small line-oriented script language covering the whole Table I surface:
//!
//! ```text
//! # GSRB sweep for -div(beta grad x) = b   (comments start with '#')
//! grid mesh rhs beta_x beta_y lambda
//!
//! domain red   = (1,1):(-1,-1):(2,2) + (2,2):(-1,-1):(2,2)
//! domain black = (1,2):(-1,-1):(2,2) + (2,1):(-1,-1):(2,2)
//! domain top   = (1,-1):(-1,-1):(1,0)
//!
//! expr ax = beta_x[1,0]*(mesh[1,0]-mesh[0,0]) - beta_x[0,0]*(mesh[0,0]-mesh[-1,0])
//! expr update = mesh[0,0] + lambda[0,0]*(rhs[0,0] - ax)
//!
//! stencil red_pass:  mesh[red]   = update
//! stencil black_pass: mesh[black] = update
//! stencil bc_top:    mesh[top]   = -mesh[0,1]
//!
//! group sweep = bc_top red_pass bc_top black_pass
//! ```
//!
//! Domains use the paper's `(start):(end):(stride)` convention with
//! relative negative bounds and stride-0 pins; `+` forms unions; named
//! expressions substitute textually-scoped subtrees (the `difference = b −
//! Ax` style of Figure 4).
//!
//! Scaled (multigrid) accesses are written with `p` for the iteration
//! point: `fine[2p-1, 2p]` reads through the affine map `2p + (-1, 0)`,
//! and a scaled *output* goes after `@` in the stencil target:
//! `stencil i: fine[cdom @ 2p-1, 2p-1] = fine[2p-1, 2p-1] + c[0, 0]`.

use std::collections::HashMap;
use std::fmt;

use crate::domain::{DomainUnion, RectDomain};
use crate::expr::Expr;
use crate::stencil::{Stencil, StencilGroup};

/// A parse failure, with 1-based line information.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// A parsed script: declared grids, named domains/expressions, stencils
/// in declaration order, and groups.
#[derive(Clone, Debug, Default)]
pub struct Script {
    /// Declared grid names, in order.
    pub grids: Vec<String>,
    /// Named domains.
    pub domains: HashMap<String, DomainUnion>,
    /// Named expressions.
    pub exprs: HashMap<String, Expr>,
    /// Stencils in declaration order.
    pub stencils: Vec<(String, Stencil)>,
    /// Named stencil groups.
    pub groups: HashMap<String, StencilGroup>,
}

impl Script {
    /// Look up a stencil by name.
    pub fn stencil(&self, name: &str) -> Option<&Stencil> {
        self.stencils
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
    }

    /// Look up a group by name.
    pub fn group(&self, name: &str) -> Option<&StencilGroup> {
        self.groups.get(name)
    }
}

/// Parse a script.
pub fn parse(src: &str) -> Result<Script, ParseError> {
    let mut script = Script::default();
    for (i, raw) in src.lines().enumerate() {
        let line_no = i + 1;
        let line = match raw.find('#') {
            Some(p) => &raw[..p],
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        let err = |message: String| ParseError {
            line: line_no,
            message,
        };
        let (keyword, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        match keyword {
            "grid" => {
                for name in rest.split_whitespace() {
                    check_ident(name).map_err(&err)?;
                    if script.grids.iter().any(|g| g == name) {
                        return Err(err(format!("grid {name:?} declared twice")));
                    }
                    script.grids.push(name.to_string());
                }
                if script.grids.is_empty() {
                    return Err(err("grid declaration needs at least one name".into()));
                }
            }
            "domain" => {
                let (name, body) = rest
                    .split_once('=')
                    .ok_or_else(|| err("expected `domain NAME = ...`".into()))?;
                let name = name.trim();
                check_ident(name).map_err(&err)?;
                let mut rects = Vec::new();
                for part in split_top_level(body, '+') {
                    rects.push(parse_rect(part.trim()).map_err(&err)?);
                }
                if rects.is_empty() {
                    return Err(err("domain needs at least one rectangle".into()));
                }
                if let Some(r) = rects.iter().find(|r| r.ndim() != rects[0].ndim()) {
                    return Err(err(format!(
                        "domain {name:?} unions rectangles of rank {} and {}",
                        rects[0].ndim(),
                        r.ndim()
                    )));
                }
                script
                    .domains
                    .insert(name.to_string(), DomainUnion::new(rects));
            }
            "expr" => {
                let (name, body) = rest
                    .split_once('=')
                    .ok_or_else(|| err("expected `expr NAME = ...`".into()))?;
                let name = name.trim();
                check_ident(name).map_err(&err)?;
                let e = ExprParser::new(body, &script).parse().map_err(&err)?;
                script.exprs.insert(name.to_string(), e);
            }
            "stencil" => {
                // stencil NAME: OUT[DOMAIN] = EXPR
                let (name, rest2) = rest
                    .split_once(':')
                    .ok_or_else(|| err("expected `stencil NAME: out[dom] = expr`".into()))?;
                let name = name.trim();
                check_ident(name).map_err(&err)?;
                let (lhs, body) = rest2
                    .split_once('=')
                    .ok_or_else(|| err("expected `= expr` in stencil".into()))?;
                let lhs = lhs.trim();
                let open = lhs
                    .find('[')
                    .ok_or_else(|| err("stencil target must be `grid[domain]`".into()))?;
                if !lhs.ends_with(']') {
                    return Err(err("stencil target must be `grid[domain]`".into()));
                }
                let out = lhs[..open].trim();
                let inner = lhs[open + 1..lhs.len() - 1].trim();
                let (dom_name, out_map_src) = match inner.split_once('@') {
                    Some((d, m)) => (d.trim(), Some(m.trim())),
                    None => (inner, None),
                };
                if !script.grids.iter().any(|g| g == out) {
                    return Err(err(format!("unknown output grid {out:?}")));
                }
                let domain = script
                    .domains
                    .get(dom_name)
                    .ok_or_else(|| err(format!("unknown domain {dom_name:?}")))?
                    .clone();
                let expr = ExprParser::new(body, &script).parse().map_err(&err)?;
                let nd = domain.ndim();
                if let Some(got) = expr.ndim().filter(|&got| got != nd) {
                    return Err(err(format!(
                        "expression rank {got} != rank {nd} of domain {dom_name:?}"
                    )));
                }
                let mut stencil = Stencil::new(expr, out, domain).named(name);
                if let Some(src) = out_map_src {
                    let map = parse_out_map(src, &script).map_err(&err)?;
                    if map.ndim() != nd {
                        return Err(err(format!(
                            "output map rank {} != rank {nd} of domain {dom_name:?}",
                            map.ndim()
                        )));
                    }
                    stencil = stencil.with_out_map(map);
                }
                script.stencils.push((name.to_string(), stencil));
            }
            "group" => {
                let (name, body) = rest
                    .split_once('=')
                    .ok_or_else(|| err("expected `group NAME = stencil...`".into()))?;
                let name = name.trim();
                check_ident(name).map_err(&err)?;
                let mut group = StencilGroup::new();
                for sname in body.split_whitespace() {
                    let s = script
                        .stencil(sname)
                        .ok_or_else(|| err(format!("unknown stencil {sname:?}")))?;
                    group.push(s.clone());
                }
                if group.is_empty() {
                    return Err(err("group needs at least one stencil".into()));
                }
                script.groups.insert(name.to_string(), group);
            }
            other => {
                return Err(err(format!(
                    "unknown keyword {other:?} (grid|domain|expr|stencil|group)"
                )))
            }
        }
    }
    Ok(script)
}

fn check_ident(s: &str) -> Result<(), String> {
    let ok = !s.is_empty()
        && s.chars().next().unwrap().is_ascii_alphabetic()
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
    if ok {
        Ok(())
    } else {
        Err(format!("invalid identifier {s:?}"))
    }
}

/// Split on `sep` outside parentheses.
fn split_top_level(s: &str, sep: char) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            c if c == sep && depth == 0 => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

/// `(a,b):(c,d):(e,f)` → RectDomain.
fn parse_rect(s: &str) -> Result<RectDomain, String> {
    let parts: Vec<&str> = split_top_level(s, ':').into_iter().map(str::trim).collect();
    if parts.len() != 3 {
        return Err(format!("rect must be `lo:hi:stride`, got {s:?}"));
    }
    let lo = parse_tuple(parts[0])?;
    let hi = parse_tuple(parts[1])?;
    let stride = parse_tuple(parts[2])?;
    if lo.len() != hi.len() || hi.len() != stride.len() {
        return Err(format!("rect tuples disagree in rank: {s:?}"));
    }
    if stride.iter().any(|&st| st < 0) {
        return Err(format!("strides must be >= 0 in {s:?}"));
    }
    Ok(RectDomain::new(&lo, &hi, &stride))
}

fn parse_tuple(s: &str) -> Result<Vec<i64>, String> {
    let s = s.trim();
    let inner = s
        .strip_prefix('(')
        .and_then(|t| t.strip_suffix(')'))
        .ok_or_else(|| format!("expected `(a,b,...)`, got {s:?}"))?;
    inner
        .split(',')
        .map(|t| {
            t.trim()
                .parse::<i64>()
                .map_err(|_| format!("bad integer {t:?} in tuple {s:?}"))
        })
        .collect()
}

/// Parse an output map `c1, c2, ...` (same component grammar as reads).
fn parse_out_map(src: &str, script: &Script) -> Result<crate::expr::AffineMap, String> {
    let mut parser = ExprParser::new(src, script);
    let mut scale = Vec::new();
    let mut offset = Vec::new();
    loop {
        let (sc, off) = parser.map_component()?;
        scale.push(sc);
        offset.push(off);
        match parser.peek() {
            Some(b',') => parser.pos += 1,
            None => break,
            other => return Err(format!("expected `,` in out-map, got {other:?}")),
        }
    }
    Ok(crate::expr::AffineMap::scaled(scale, offset))
}

/// Recursive-descent expression parser over a byte cursor.
struct ExprParser<'a> {
    src: &'a [u8],
    pos: usize,
    script: &'a Script,
}

impl<'a> ExprParser<'a> {
    fn new(src: &'a str, script: &'a Script) -> Self {
        ExprParser {
            src: src.as_bytes(),
            pos: 0,
            script,
        }
    }

    fn parse(mut self) -> Result<Expr, String> {
        let e = self.expr()?;
        self.skip_ws();
        if self.pos != self.src.len() {
            return Err(format!(
                "trailing input at column {}: {:?}",
                self.pos + 1,
                String::from_utf8_lossy(&self.src[self.pos..])
            ));
        }
        Ok(e)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.src.get(self.pos).copied()
    }

    fn expr(&mut self) -> Result<Expr, String> {
        let mut acc = self.term()?;
        loop {
            match self.peek() {
                Some(b'+') => {
                    self.pos += 1;
                    acc = acc + self.term()?;
                }
                Some(b'-') => {
                    self.pos += 1;
                    acc = acc - self.term()?;
                }
                _ => return Ok(acc),
            }
        }
    }

    fn term(&mut self) -> Result<Expr, String> {
        let mut acc = self.factor()?;
        loop {
            match self.peek() {
                Some(b'*') => {
                    self.pos += 1;
                    acc = acc * self.factor()?;
                }
                Some(b'/') => {
                    self.pos += 1;
                    acc = acc / self.factor()?;
                }
                _ => return Ok(acc),
            }
        }
    }

    fn factor(&mut self) -> Result<Expr, String> {
        match self.peek() {
            Some(b'-') => {
                self.pos += 1;
                Ok(-self.factor()?)
            }
            Some(b'(') => {
                self.pos += 1;
                let e = self.expr()?;
                if self.peek() != Some(b')') {
                    return Err("missing `)`".into());
                }
                self.pos += 1;
                Ok(e)
            }
            Some(c) if c.is_ascii_digit() || c == b'.' => self.number(),
            Some(c) if c.is_ascii_alphabetic() => self.ident_or_read(),
            other => Err(format!("unexpected input: {other:?}")),
        }
    }

    fn number(&mut self) -> Result<Expr, String> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.src.len()
            && (self.src[self.pos].is_ascii_digit()
                || self.src[self.pos] == b'.'
                || ((self.src[self.pos] == b'e' || self.src[self.pos] == b'E')
                    && self.pos + 1 < self.src.len())
                || ((self.src[self.pos] == b'+' || self.src[self.pos] == b'-')
                    && self.pos > start
                    && (self.src[self.pos - 1] == b'e' || self.src[self.pos - 1] == b'E')))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Expr::Const)
            .map_err(|_| format!("bad number {text:?}"))
    }

    fn ident_or_read(&mut self) -> Result<Expr, String> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.src.len()
            && (self.src[self.pos].is_ascii_alphanumeric() || self.src[self.pos] == b'_')
        {
            self.pos += 1;
        }
        let name = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
        if self.peek() == Some(b'[') {
            // grid read: name[c1, c2, ...] where each component is an
            // integer offset or an affine `k p ± o` term.
            if !self.script.grids.iter().any(|g| g == name) {
                return Err(format!("unknown grid {name:?}"));
            }
            self.pos += 1; // '['
            let mut scale = Vec::new();
            let mut offset = Vec::new();
            loop {
                let (sc, off) = self.map_component()?;
                scale.push(sc);
                offset.push(off);
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        break;
                    }
                    other => return Err(format!("expected `,` or `]`, got {other:?}")),
                }
            }
            Ok(Expr::read_mapped(
                name,
                crate::expr::AffineMap::scaled(scale, offset),
            ))
        } else if let Some(e) = self.script.exprs.get(name) {
            Ok(e.clone())
        } else {
            Err(format!(
                "unknown name {name:?} (not a declared expr; grid reads need `[offsets]`)"
            ))
        }
    }

    /// One map component: `INT` (translation), `p`, `p±INT`, `INT p`, or
    /// `INT p±INT`. Returns `(scale, offset)` — a bare integer is the
    /// unit-scale translation `(1, INT)`; with a `p` marker the leading
    /// integer is the scale.
    fn map_component(&mut self) -> Result<(i64, i64), String> {
        self.skip_ws();
        // Optional leading integer.
        let lead = if matches!(self.peek(), Some(c) if c == b'-' || c.is_ascii_digit()) {
            Some(self.integer()?)
        } else {
            None
        };
        if self.peek() == Some(b'p') {
            self.pos += 1;
            let scale = lead.unwrap_or(1);
            let off = match self.peek() {
                Some(b'+') => {
                    self.pos += 1;
                    self.integer()?
                }
                Some(b'-') => self.integer()?, // integer() consumes the sign
                _ => 0,
            };
            Ok((scale, off))
        } else {
            match lead {
                Some(off) => Ok((1, off)),
                None => Err("expected an offset or `p` term".into()),
            }
        }
    }

    fn integer(&mut self) -> Result<i64, String> {
        self.skip_ws();
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
        text.parse::<i64>()
            .map_err(|_| format!("bad offset {text:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShapeMap;

    const GSRB: &str = r#"
# Figure 4 as a script
grid mesh rhs beta_x beta_y lambda

domain red   = (1,1):(-1,-1):(2,2) + (2,2):(-1,-1):(2,2)
domain black = (1,2):(-1,-1):(2,2) + (2,1):(-1,-1):(2,2)
domain top   = (1,-1):(-1,-1):(1,0)

expr ax = (beta_x[1,0]+beta_x[0,0]+beta_y[0,1]+beta_y[0,0])*mesh[0,0] - beta_x[1,0]*mesh[1,0] - beta_x[0,0]*mesh[-1,0] - beta_y[0,1]*mesh[0,1] - beta_y[0,0]*mesh[0,-1]
expr update = mesh[0,0] + lambda[0,0]*(rhs[0,0] - ax)

stencil red_pass:   mesh[red]   = update
stencil black_pass: mesh[black] = update
stencil bc_top:     mesh[top]   = -mesh[0,-1]

group sweep = bc_top red_pass black_pass
"#;

    #[test]
    fn parses_figure4_script() {
        let script = parse(GSRB).expect("parse");
        assert_eq!(script.grids.len(), 5);
        assert_eq!(script.domains["red"].rects().len(), 2);
        assert_eq!(script.stencils.len(), 3);
        let sweep = script.group("sweep").unwrap();
        assert_eq!(sweep.len(), 3);
        // The parsed group validates against concrete shapes.
        let mut shapes = ShapeMap::new();
        for g in &script.grids {
            shapes.insert(g.clone(), vec![10, 10]);
        }
        assert!(
            sweep.validate(&shapes).is_ok(),
            "{:?}",
            sweep.validate(&shapes)
        );
        // Red pass is in place.
        assert!(script.stencil("red_pass").unwrap().is_in_place());
    }

    #[test]
    fn parsed_expression_matches_api_built_one() {
        let script =
            parse("grid a b\nexpr e = 2*a[1] - b[0]/4 + 1.5\nstencil s: b[(0):(0):(1)]... ");
        // (that stencil line is invalid; test expressions separately)
        assert!(script.is_err());

        let script = parse("grid a b\nexpr e = 2*a[1] - b[0]/4 + 1.5e0").unwrap();
        let got = &script.exprs["e"];
        let want = Expr::Const(2.0) * Expr::read_at("a", &[1])
            - Expr::read_at("b", &[0]) / Expr::Const(4.0)
            + Expr::Const(1.5);
        // Compare by evaluation (tree shapes may differ in constant forms).
        for p in -3i64..4 {
            let mut f = |g: &str, idx: &[i64]| {
                if g == "a" {
                    idx[0] as f64
                } else {
                    10.0 + idx[0] as f64
                }
            };
            assert_eq!(got.eval(&[p], &mut f), want.eval(&[p], &mut f));
        }
    }

    #[test]
    fn precedence_and_parens() {
        let s = parse("grid g\nexpr e = 1 + 2 * 3\nexpr f = (1 + 2) * 3").unwrap();
        assert_eq!(s.exprs["e"].eval(&[], &mut |_, _| 0.0), 7.0);
        assert_eq!(s.exprs["f"].eval(&[], &mut |_, _| 0.0), 9.0);
    }

    #[test]
    fn unary_minus_and_nested_negation() {
        let s = parse("grid g\nexpr e = --3 - -2").unwrap();
        assert_eq!(s.exprs["e"].eval(&[], &mut |_, _| 0.0), 5.0);
    }

    #[test]
    fn named_expr_substitution() {
        let s = parse("grid g\nexpr half = g[0]/2\nexpr e = half + half").unwrap();
        let v = s.exprs["e"].eval(&[3], &mut |_, idx| idx[0] as f64 * 2.0);
        assert_eq!(v, 6.0);
    }

    #[test]
    fn error_reporting_carries_line_numbers() {
        let err = parse("grid g\n\nexxpr e = 1").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("unknown keyword"));

        let err = parse("grid g\nexpr e = g[0] +").unwrap_err();
        assert_eq!(err.line, 2);

        let err = parse("grid g\nexpr e = h[0]").unwrap_err();
        assert!(err.message.contains("unknown grid"));

        let err = parse("grid g\nstencil s: g[nowhere] = 1").unwrap_err();
        assert!(err.message.contains("unknown domain"));

        let err = parse("domain d = (1):(2)").unwrap_err();
        assert!(err.message.contains("lo:hi:stride"));
    }

    #[test]
    fn duplicate_grid_rejected() {
        assert!(parse("grid a a").unwrap_err().message.contains("twice"));
    }

    #[test]
    fn pinned_stride_zero_domain() {
        let s = parse("grid g\ndomain face = (0,1):(0,-1):(0,1)").unwrap();
        let region = &s.domains["face"].resolve(&[8, 8]).unwrap()[0];
        assert_eq!(region.extent(0), 1);
        assert!(region.contains(&[0, 3]));
    }

    #[test]
    fn scaled_reads_parse_to_affine_maps() {
        let s = parse("grid fine coarse\nexpr r = fine[2p-1, 2p] * 0.5").unwrap();
        let reads = s.exprs["r"].reads();
        assert_eq!(reads.len(), 1);
        assert_eq!(reads[0].1.scale, vec![2, 2]);
        assert_eq!(reads[0].1.offset, vec![-1, 0]);
        // Evaluation applies the map.
        let v = s.exprs["r"].eval(&[3, 4], &mut |_, idx| (idx[0] * 10 + idx[1]) as f64);
        assert_eq!(v, (5 * 10 + 8) as f64 * 0.5);
    }

    #[test]
    fn restriction_program_from_text() {
        // The full multigrid restriction, 1-D for brevity:
        // coarse[p] = 0.5*(fine[2p-1] + fine[2p]).
        let src = "grid fine coarse\n\
                   domain cint = (1):(-1):(1)\n\
                   stencil restrict: coarse[cint] = 0.5*(fine[2p-1] + fine[2p])";
        let script = parse(src).unwrap();
        let st = script.stencil("restrict").unwrap();
        let mut shapes = ShapeMap::new();
        shapes.insert("fine".into(), vec![18]);
        shapes.insert("coarse".into(), vec![10]);
        assert!(st.validate(&shapes).is_ok(), "{:?}", st.validate(&shapes));
    }

    #[test]
    fn interpolation_out_map_from_text() {
        // fine[2p-1] += coarse[p]: scaled output via `@`.
        let src = "grid fine coarse\n\
                   domain cint = (1):(-1):(1)\n\
                   stencil interp: fine[cint @ 2p-1] = fine[2p-1] + coarse[0]";
        let script = parse(src).unwrap();
        let st = script.stencil("interp").unwrap();
        assert_eq!(st.out_map().scale, vec![2]);
        assert_eq!(st.out_map().offset, vec![-1]);
        let mut shapes = ShapeMap::new();
        shapes.insert("fine".into(), vec![18]);
        shapes.insert("coarse".into(), vec![10]);
        assert!(st.validate(&shapes).is_ok(), "{:?}", st.validate(&shapes));
    }

    #[test]
    fn plain_p_component() {
        let s = parse("grid g\nexpr e = g[p+2, p]").unwrap();
        let reads = s.exprs["e"].reads();
        assert_eq!(reads[0].1.scale, vec![1, 1]);
        assert_eq!(reads[0].1.offset, vec![2, 0]);
    }

    mod roundtrip {
        use super::*;
        use proptest::prelude::*;

        /// Random translation-only expressions over two grids.
        fn arb_expr(depth: u32) -> BoxedStrategy<Expr> {
            let leaf = prop_oneof![
                (-20i64..20).prop_map(|c| Expr::Const(c as f64 / 4.0)),
                (-2i64..3, -2i64..3).prop_map(|(i, j)| Expr::read_at("a", &[i, j])),
                (-2i64..3, -2i64..3).prop_map(|(i, j)| Expr::read_at("b", &[i, j])),
            ];
            if depth == 0 {
                return leaf.boxed();
            }
            let sub = arb_expr(depth - 1);
            prop_oneof![
                leaf,
                (sub.clone(), arb_expr(depth - 1)).prop_map(|(x, y)| x + y),
                (arb_expr(depth - 1), arb_expr(depth - 1)).prop_map(|(x, y)| x - y),
                (arb_expr(depth - 1), arb_expr(depth - 1)).prop_map(|(x, y)| x * y),
                arb_expr(depth - 1).prop_map(|x| -x),
            ]
            .boxed()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(200))]
            /// Display → parse → evaluate must round-trip exactly.
            #[test]
            fn display_parse_roundtrip(e in arb_expr(3)) {
                let src = format!("grid a b\nexpr e = {e}");
                let script = parse(&src)
                    .unwrap_or_else(|err| panic!("reparse of {src:?}: {err}"));
                let got = &script.exprs["e"];
                let mut f = |g: &str, idx: &[i64]| {
                    let base = if g == "a" { 1.0 } else { -2.0 };
                    base + idx[0] as f64 * 0.5 + idx[1] as f64 * 0.25
                };
                for p in [[0i64, 0], [2, -1], [-3, 4]] {
                    let want = e.eval(&p, &mut f);
                    let have = got.eval(&p, &mut f);
                    prop_assert!(
                        want == have || (want.is_nan() && have.is_nan()),
                        "{e} -> {got:?}: {want} vs {have}"
                    );
                }
            }
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let s = parse("# header\n\n   # indented comment\ngrid g  # trailing\n").unwrap();
        assert_eq!(s.grids, vec!["g".to_string()]);
    }
}
