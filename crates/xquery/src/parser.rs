//! Recursive-descent parser for the view-query language.
//!
//! Grammar (informally; commas between content items are optional):
//!
//! ```text
//! view      := tag-open content* tag-close
//! content   := flwr | element | projection | string
//! element   := tag-open content* tag-close
//! flwr      := FOR binding ("," binding)* (WHERE pred (AND pred)*)? RETURN "{" content* "}"
//! binding   := "$"var (IN | "=") source
//! source    := document "(" string ")" ("/" step)* | "$"var ("/" step)*
//! pred      := "("? operand cmp operand ")"?
//! operand   := "$"var ("/" step)* | literal
//! ```
//!
//! Elements and FLWR bodies nest at most [`MAX_NESTING`] levels below the
//! root tag; deeper input is a [`ParseError`], never a stack overflow.

use ufilter_rdb::{CmpOp, Value};
use ufilter_xml::MAX_NESTING;

use crate::ast::*;
use crate::lexer::{lex, Tok};

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub message: String,
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "view query parse error at {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

pub(crate) struct P {
    pub toks: Vec<(Tok, usize)>,
    pub pos: usize,
    /// Element constructors and FLWR bodies currently open below the root.
    depth: usize,
}

impl P {
    pub fn new(input: &str) -> Result<P, ParseError> {
        let toks = lex(input).map_err(|e| ParseError { message: e.message, offset: e.offset })?;
        Ok(P { toks, pos: 0, depth: 0 })
    }

    /// Parse one nested element or FLWR body with `inner`, refusing to go
    /// deeper than [`MAX_NESTING`] levels below the root tag.
    fn nested<T>(
        &mut self,
        inner: impl FnOnce(&mut P) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!(
                "elements and FLWR expressions nested deeper than {MAX_NESTING} levels"
            )));
        }
        self.depth += 1;
        let out = inner(self)?;
        self.depth -= 1;
        Ok(out)
    }

    pub fn err(&self, m: impl Into<String>) -> ParseError {
        ParseError { message: m.into(), offset: self.toks[self.pos].1 }
    }

    pub fn peek(&self) -> &Tok {
        &self.toks[self.pos].0
    }

    pub fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].0
    }

    /// Whether the next tokens start an aggregate call (`count(…)`, …).
    pub fn at_aggregate(&self) -> bool {
        matches!(self.peek(), Tok::Ident(s) if AggFunc::parse(s).is_some())
            && matches!(self.peek2(), Tok::Sym("("))
    }

    /// Parse `func(document("d")/<table>/row[/<column>])`; the caller has
    /// checked [`at_aggregate`](P::at_aggregate).
    pub fn aggregate(&mut self) -> Result<AggregateExpr, ParseError> {
        let func = match self.bump() {
            Tok::Ident(s) => AggFunc::parse(&s).expect("caller checked at_aggregate"),
            other => return Err(self.err(format!("expected aggregate name, found {other:?}"))),
        };
        self.expect_sym("(")?;
        let (doc, steps) = self.doc_source()?;
        self.expect_sym(")")?;
        let (table, column) = match steps.as_slice() {
            [table, row] if row.eq_ignore_ascii_case("row") => (table.clone(), None),
            [table, row, col] if row.eq_ignore_ascii_case("row") => {
                (table.clone(), Some(col.clone()))
            }
            _ => {
                return Err(self.err(format!(
                    "aggregate sources must be document(…)/<table>/row[/<column>], got /{}",
                    steps.join("/")
                )))
            }
        };
        if column.is_none() && func != AggFunc::Count {
            return Err(self.err(format!("{func}() needs a column: {func}(document(…)/t/row/col)")));
        }
        Ok(AggregateExpr { func, doc, table, column })
    }

    pub fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].0.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    pub fn eat_sym(&mut self, s: &str) -> bool {
        if matches!(self.peek(), Tok::Sym(x) if *x == s) {
            self.bump();
            true
        } else {
            false
        }
    }

    pub fn expect_sym(&mut self, s: &str) -> Result<(), ParseError> {
        if self.eat_sym(s) {
            Ok(())
        } else {
            Err(self.err(format!("expected '{s}', found {:?}", self.peek())))
        }
    }

    pub fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    pub fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kw}, found {:?}", self.peek())))
        }
    }

    pub fn ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    /// `/step/step…` (possibly empty).
    pub fn steps(&mut self) -> Result<Vec<String>, ParseError> {
        let mut steps = Vec::new();
        while self.eat_sym("/") {
            steps.push(self.ident()?);
        }
        Ok(steps)
    }

    pub fn path(&mut self, var: String) -> Result<PathExpr, ParseError> {
        Ok(PathExpr { var, steps: self.steps()? })
    }

    /// `document("…")/step…`.
    pub fn doc_source(&mut self) -> Result<(String, Vec<String>), ParseError> {
        self.expect_kw("document")?;
        self.expect_sym("(")?;
        let doc = match self.bump() {
            Tok::Str(s) => s,
            other => return Err(self.err(format!("expected document name, found {other:?}"))),
        };
        self.expect_sym(")")?;
        Ok((doc, self.steps()?))
    }

    pub fn operand(&mut self) -> Result<Operand, ParseError> {
        if self.at_aggregate() {
            return Ok(Operand::Aggregate(self.aggregate()?));
        }
        match self.bump() {
            Tok::Var(v) => Ok(Operand::Path(self.path(v)?)),
            Tok::Str(s) => Ok(Operand::Literal(Value::Str(s))),
            Tok::Int(i) => Ok(Operand::Literal(Value::Int(i))),
            Tok::Float(f) => Ok(Operand::Literal(Value::Double(f))),
            other => Err(self.err(format!("expected operand, found {other:?}"))),
        }
    }

    pub fn cmp_op(&mut self) -> Result<CmpOp, ParseError> {
        let op = match self.peek() {
            Tok::Sym("=") => CmpOp::Eq,
            Tok::Sym("!=") => CmpOp::Ne,
            Tok::Sym("<") => CmpOp::Lt,
            Tok::Sym("<=") => CmpOp::Le,
            Tok::Sym(">") => CmpOp::Gt,
            Tok::Sym(">=") => CmpOp::Ge,
            other => return Err(self.err(format!("expected comparison, found {other:?}"))),
        };
        self.bump();
        Ok(op)
    }

    /// One predicate, with optional enclosing parens.
    pub fn predicate(&mut self) -> Result<Predicate, ParseError> {
        let parens = self.eat_sym("(");
        let lhs = self.operand()?;
        let op = self.cmp_op()?;
        let rhs = self.operand()?;
        if parens {
            self.expect_sym(")")?;
        }
        Ok(Predicate { lhs, op, rhs })
    }

    /// `WHERE p (AND p)*` — already past the WHERE keyword.
    pub fn predicates(&mut self) -> Result<Vec<Predicate>, ParseError> {
        let mut preds = vec![self.predicate()?];
        while self.eat_kw("AND") {
            preds.push(self.predicate()?);
        }
        Ok(preds)
    }
}

/// Parse a full view query.
pub fn parse_view_query(input: &str) -> Result<ViewQuery, ParseError> {
    let mut p = P::new(input)?;
    let root_tag = match p.bump() {
        Tok::TagOpen(t) => t,
        other => {
            return Err(p.err(format!("view query must start with a root tag, found {other:?}")))
        }
    };
    let content = content_until_close(&mut p, &root_tag)?;
    if !matches!(p.peek(), Tok::Eof) {
        return Err(p.err("trailing tokens after the root closing tag"));
    }
    Ok(ViewQuery { root_tag, content })
}

fn content_until_close(p: &mut P, tag: &str) -> Result<Vec<Content>, ParseError> {
    let mut out = Vec::new();
    loop {
        // Commas between content items are separators; skip freely.
        while p.eat_sym(",") {}
        match p.peek().clone() {
            Tok::TagClose(t) => {
                if t != tag {
                    return Err(p.err(format!("mismatched close: <{tag}> closed by </{t}>")));
                }
                p.bump();
                return Ok(out);
            }
            Tok::Eof => return Err(p.err(format!("unexpected end of input inside <{tag}>"))),
            _ => out.push(content_item(p)?),
        }
    }
}

fn content_item(p: &mut P) -> Result<Content, ParseError> {
    if p.at_aggregate() {
        return Ok(Content::Aggregate(p.aggregate()?));
    }
    match p.peek().clone() {
        Tok::TagOpen(t) => {
            p.bump();
            let content = p.nested(|p| content_until_close(p, &t))?;
            Ok(Content::Element(ElementCtor { tag: t, content }))
        }
        Tok::Var(v) => {
            p.bump();
            Ok(Content::Projection(p.path(v)?))
        }
        Tok::Str(s) => {
            p.bump();
            Ok(Content::Text(s))
        }
        Tok::Ident(ref s) if s.eq_ignore_ascii_case("FOR") => {
            p.bump();
            Ok(Content::Flwr(p.nested(flwr)?))
        }
        other => Err(p.err(format!("unexpected token in element content: {other:?}"))),
    }
}

/// The FOR bindings and WHERE predicates of a FLWR. Kept out of [`flwr`]
/// so the recursion through nested RETURN bodies carries a small stack
/// frame per level.
fn flwr_head(p: &mut P) -> Result<(Vec<ForBinding>, Vec<Predicate>), ParseError> {
    let mut bindings = Vec::new();
    loop {
        let var = match p.bump() {
            Tok::Var(v) => v,
            other => return Err(p.err(format!("expected $variable in FOR, found {other:?}"))),
        };
        // The paper writes both `$x IN …` and `$x = …` (u9 in Fig. 10).
        if !p.eat_kw("IN") && !p.eat_sym("=") {
            return Err(p.err("expected IN after FOR variable"));
        }
        let distinct = if p.peek().is_kw("distinct") || p.peek().is_kw("distinct-values") {
            p.bump();
            p.expect_sym("(")?;
            true
        } else {
            false
        };
        let source = if p.peek().is_kw("document") {
            let (doc, steps) = p.doc_source()?;
            match steps.as_slice() {
                [table, row] if row.eq_ignore_ascii_case("row") => {
                    Source::Table { doc, table: table.clone() }
                }
                _ => {
                    return Err(p.err(format!(
                        "view-query FOR sources must be document(…)/<table>/row, got /{}",
                        steps.join("/")
                    )))
                }
            }
        } else if let Tok::Var(v) = p.peek().clone() {
            p.bump();
            Source::Relative(p.path(v)?)
        } else {
            return Err(p.err(format!("expected a source, found {:?}", p.peek())));
        };
        if distinct {
            p.expect_sym(")")?;
        }
        bindings.push(ForBinding { var, source, distinct });
        if !p.eat_sym(",") {
            break;
        }
    }
    let predicates = if p.eat_kw("WHERE") { p.predicates()? } else { Vec::new() };
    Ok((bindings, predicates))
}

/// Parse a FLWR body; the FOR keyword is already consumed.
fn flwr(p: &mut P) -> Result<Flwr, ParseError> {
    let (bindings, predicates) = flwr_head(p)?;
    p.expect_kw("RETURN")?;
    p.expect_sym("{")?;
    let mut ret = Vec::new();
    loop {
        while p.eat_sym(",") {}
        if p.eat_sym("}") {
            break;
        }
        if matches!(p.peek(), Tok::Eof) {
            return Err(p.err("unexpected end of input inside RETURN { … }"));
        }
        ret.push(content_item(p)?);
    }
    Ok(Flwr { bindings, predicates, ret })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A view nested `levels` deep below its root tag: one FLWR, then
    /// `levels - 1` constant elements around a projection.
    fn nested_elements(levels: usize) -> String {
        let open: String = (1..levels).map(|d| format!("<e{d}>")).collect();
        let close: String = (1..levels).rev().map(|d| format!("</e{d}>")).collect();
        format!("<V>FOR $b IN document(\"d\")/book/row RETURN {{{open}$b/bookid{close}}}</V>")
    }

    /// `levels` FLWR expressions, each the RETURN body of the previous one.
    fn nested_flwrs(levels: usize) -> String {
        let open = "FOR $b IN document(\"d\")/book/row RETURN {".repeat(levels);
        format!("<V>{open}$b/bookid{}</V>", "}".repeat(levels))
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        for nested in [nested_elements, nested_flwrs] {
            assert!(parse_view_query(&nested(MAX_NESTING)).is_ok());
            for levels in [MAX_NESTING + 1, 100_000] {
                let err = parse_view_query(&nested(levels)).unwrap_err();
                assert!(err.message.contains("nested deeper than 512 levels"), "{err}");
            }
        }
    }

    /// The BookView query of Fig. 3(a), verbatim modulo whitespace.
    pub const BOOK_VIEW: &str = r#"
<BookView>
FOR $book IN document("default.xml")/book/row,
$publisher IN document("default.xml")/publisher/row
WHERE ($book/pubid = $publisher/pubid)
AND ($book/price<50.00) AND ($book/year > 1990)
RETURN {
<book>
$book/bookid, $book/title, $book/price,
<publisher>
$publisher/pubid, $publisher/pubname
</publisher>,
FOR $review IN document("default.xml")/review/row
WHERE ($book/bookid = $review/bookid)
RETURN{
<review>
$review/reviewid, $review/comment
</review>}
</book>},
FOR $publisher IN document("default.xml")/publisher/row
RETURN{
<publisher>
$publisher/pubid, $publisher/pubname
</publisher>}
</BookView>"#;

    #[test]
    fn parses_fig3a_bookview() {
        let q = parse_view_query(BOOK_VIEW).unwrap();
        assert_eq!(q.root_tag, "BookView");
        assert_eq!(q.content.len(), 2); // two top-level FLWRs
        let Content::Flwr(f1) = &q.content[0] else { panic!("first item must be FLWR") };
        assert_eq!(f1.bindings.len(), 2);
        assert_eq!(f1.predicates.len(), 3);
        assert_eq!(f1.predicates.iter().filter(|p| p.is_correlation()).count(), 1);
        // book element: 3 projections, 1 publisher ctor, 1 nested FLWR.
        let Content::Element(book) = &f1.ret[0] else { panic!("RETURN must hold <book>") };
        assert_eq!(book.tag, "book");
        assert_eq!(book.content.len(), 5);
        assert!(matches!(book.content[4], Content::Flwr(_)));
        // relations in order of first appearance
        assert_eq!(q.relations(), vec!["book", "publisher", "review"]);
    }

    #[test]
    fn nested_projection_paths() {
        let q = parse_view_query(
            "<V> FOR $b IN document(\"d\")/book/row RETURN { <x> $b/title/text() </x> } </V>",
        )
        .unwrap();
        let Content::Flwr(f) = &q.content[0] else { panic!() };
        let Content::Element(x) = &f.ret[0] else { panic!() };
        let Content::Projection(p) = &x.content[0] else { panic!() };
        assert_eq!(p.attribute(), Some("title"));
        assert_eq!(p.steps.last().map(String::as_str), Some("text()"));
    }

    #[test]
    fn equals_binding_alias() {
        // u9-style: `$book =$root/book`.
        let q = parse_view_query("<V> FOR $b = document(\"d\")/book/row RETURN { <x> </x> } </V>")
            .unwrap();
        assert_eq!(q.relations(), vec!["book"]);
    }

    #[test]
    fn relative_source_accepted_by_parser() {
        let q = parse_view_query(
            "<V> FOR $r IN document(\"d\")/book/row RETURN { \
               FOR $s IN $r/review RETURN { <y> </y> } } </V>",
        )
        .unwrap();
        let Content::Flwr(f) = &q.content[0] else { panic!() };
        let Content::Flwr(inner) = &f.ret[0] else { panic!() };
        assert!(matches!(inner.bindings[0].source, Source::Relative(_)));
    }

    #[test]
    fn rejects_non_row_source() {
        let e = parse_view_query("<V> FOR $b IN document(\"d\")/book RETURN { <x> </x> } </V>")
            .unwrap_err();
        assert!(e.message.contains("document"));
    }

    #[test]
    fn rejects_mismatched_tags() {
        let e = parse_view_query("<V> <a> </b> </V>").unwrap_err();
        assert!(e.message.contains("mismatched"));
    }

    #[test]
    fn distinct_source_sets_the_flag() {
        let q = parse_view_query(
            "<V> FOR $a IN distinct(document(\"d\")/author/row) \
             RETURN { <a> $a/name </a> } </V>",
        )
        .unwrap();
        let Content::Flwr(f) = &q.content[0] else { panic!() };
        assert!(f.bindings[0].distinct);
        // distinct-values is an accepted spelling.
        let q2 = parse_view_query(
            "<V> FOR $a IN distinct-values(document(\"d\")/author/row) \
             RETURN { <a> $a/name </a> } </V>",
        )
        .unwrap();
        let Content::Flwr(f2) = &q2.content[0] else { panic!() };
        assert!(f2.bindings[0].distinct);
    }

    #[test]
    fn aggregate_content_parses() {
        let q = parse_view_query(
            "<V> <n> count(document(\"d\")/bid/row) </n>, \
             <m> max(document(\"d\")/bid/row/amount) </m> </V>",
        )
        .unwrap();
        let Content::Element(n) = &q.content[0] else { panic!() };
        let Content::Aggregate(c) = &n.content[0] else { panic!("{:?}", n.content) };
        assert_eq!(c.func, crate::ast::AggFunc::Count);
        assert_eq!(c.table, "bid");
        assert_eq!(c.column, None);
        let Content::Element(m) = &q.content[1] else { panic!() };
        let Content::Aggregate(x) = &m.content[0] else { panic!() };
        assert_eq!(x.func, crate::ast::AggFunc::Max);
        assert_eq!(x.column.as_deref(), Some("amount"));
        assert_eq!(q.relations(), vec!["bid"]);
    }

    #[test]
    fn aggregate_predicate_parses() {
        let q = parse_view_query(
            "<V> FOR $b IN document(\"d\")/bid/row \
             WHERE $b/amount = max(document(\"d\")/bid/row/amount) \
             AND count(document(\"d\")/item/row) > 2 \
             RETURN { <x> $b/amount </x> } </V>",
        )
        .unwrap();
        let Content::Flwr(f) = &q.content[0] else { panic!() };
        assert_eq!(f.predicates[0].aggregates().len(), 1);
        assert_eq!(f.predicates[1].aggregates().len(), 1);
        assert_eq!(q.relations(), vec!["bid", "item"]);
    }

    #[test]
    fn value_aggregates_require_a_column() {
        let e = parse_view_query("<V> <m> max(document(\"d\")/bid/row) </m> </V>").unwrap_err();
        assert!(e.message.contains("needs a column"), "{e}");
    }

    #[test]
    fn predicate_shapes() {
        let q = parse_view_query(
            "<V> FOR $b IN document(\"d\")/book/row \
             WHERE $b/price >= 10.00 AND ($b/title != 'x') \
             RETURN { <x> </x> } </V>",
        )
        .unwrap();
        let Content::Flwr(f) = &q.content[0] else { panic!() };
        assert_eq!(f.predicates.len(), 2);
        let (p, op, v) = f.predicates[0].as_non_correlation().unwrap();
        assert_eq!(p.attribute(), Some("price"));
        assert_eq!(op, CmpOp::Ge);
        assert_eq!(*v, Value::Double(10.0));
    }
}
