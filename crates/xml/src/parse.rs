//! A small, strict XML parser covering the fragment the paper's documents
//! use: elements, text, the five predefined entities, comments, and
//! processing-instruction/doctype skipping. No attributes are produced in
//! the paper's views; attributes are parsed and *discarded with an error by
//! default* (strictness), or tolerated via [`ParseOptions::ignore_attributes`].

use crate::node::{Document, NodeId};
use crate::MAX_NESTING;

/// Parser configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParseOptions {
    /// Accept attributes on elements, dropping them (the default rejects).
    pub ignore_attributes: bool,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlParseError {
    pub message: String,
    pub offset: usize,
}

impl std::fmt::Display for XmlParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "XML parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for XmlParseError {}

pub fn parse(input: &str) -> Result<Document, XmlParseError> {
    parse_with(input, ParseOptions::default())
}

/// Parse exactly one element from the front of `input`, returning the
/// document and the number of **chars** consumed. Used by the update
/// language parser, whose `INSERT <fragment>` embeds XML mid-statement.
pub fn parse_prefix(input: &str) -> Result<(Document, usize), XmlParseError> {
    let mut p = P { chars: input.chars().collect(), pos: 0, opts: ParseOptions::default() };
    p.skip_misc();
    let (name, self_closing) = p.open_tag()?;
    let mut doc = Document::new(name.clone());
    let root = doc.root();
    if !self_closing {
        p.content(&mut doc, root, &name, 1)?;
    }
    Ok((doc, p.pos))
}

pub fn parse_with(input: &str, opts: ParseOptions) -> Result<Document, XmlParseError> {
    let mut p = P { chars: input.chars().collect(), pos: 0, opts };
    p.skip_misc();
    let (name, self_closing) = p.open_tag()?;
    let mut doc = Document::new(name.clone());
    let root = doc.root();
    if !self_closing {
        p.content(&mut doc, root, &name, 1)?;
    }
    p.skip_misc();
    if p.pos < p.chars.len() {
        return Err(p.err("trailing content after document element"));
    }
    Ok(doc)
}

struct P {
    chars: Vec<char>,
    pos: usize,
    opts: ParseOptions,
}

impl P {
    fn err(&self, m: impl Into<String>) -> XmlParseError {
        XmlParseError { message: m.into(), offset: self.pos }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.chars[self.pos.min(self.chars.len())..]
            .iter()
            .zip(s.chars())
            .filter(|(a, b)| **a == *b)
            .count()
            == s.chars().count()
    }

    fn advance(&mut self, n: usize) {
        self.pos = (self.pos + n).min(self.chars.len());
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(char::is_whitespace) {
            self.pos += 1;
        }
    }

    /// Skip whitespace, comments, PIs and doctype before/after the root.
    fn skip_misc(&mut self) {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                self.skip_until("-->");
            } else if self.starts_with("<?") {
                self.skip_until("?>");
            } else if self.starts_with("<!DOCTYPE") || self.starts_with("<!doctype") {
                self.skip_until(">");
            } else {
                break;
            }
        }
    }

    fn skip_until(&mut self, end: &str) {
        while self.pos < self.chars.len() && !self.starts_with(end) {
            self.pos += 1;
        }
        self.advance(end.chars().count());
    }

    fn name(&mut self) -> Result<String, XmlParseError> {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':'))
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(self.chars[start..self.pos].iter().collect())
    }

    /// Parse `<name …>`; returns (name, self_closing).
    fn open_tag(&mut self) -> Result<(String, bool), XmlParseError> {
        if self.peek() != Some('<') {
            return Err(self.err("expected '<'"));
        }
        self.pos += 1;
        let name = self.name()?;
        self.skip_ws();
        // Attributes.
        while self.peek().is_some_and(|c| c != '>' && c != '/') {
            if !self.opts.ignore_attributes {
                return Err(self.err(format!("attributes are not supported (element {name})")));
            }
            let _ = self.name()?;
            self.skip_ws();
            if self.peek() == Some('=') {
                self.pos += 1;
                self.skip_ws();
                let quote = self.peek().ok_or_else(|| self.err("eof in attribute"))?;
                if quote != '"' && quote != '\'' {
                    return Err(self.err("attribute value must be quoted"));
                }
                self.pos += 1;
                while self.peek().is_some_and(|c| c != quote) {
                    self.pos += 1;
                }
                self.pos += 1;
            }
            self.skip_ws();
        }
        let self_closing = self.peek() == Some('/');
        if self_closing {
            self.pos += 1;
        }
        if self.peek() != Some('>') {
            return Err(self.err("expected '>'"));
        }
        self.pos += 1;
        Ok((name, self_closing))
    }

    /// Parse the content of `parent`, the `depth`-th nested element (the
    /// document element is depth 1), through its closing tag.
    fn content(
        &mut self,
        doc: &mut Document,
        parent: NodeId,
        parent_name: &str,
        depth: usize,
    ) -> Result<(), XmlParseError> {
        let mut text = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err(format!("unexpected eof inside <{parent_name}>"))),
                Some('<') => {
                    if !text.trim().is_empty() {
                        let t = doc.new_text(std::mem::take(&mut text));
                        doc.append_child(parent, t);
                    } else {
                        text.clear();
                    }
                    if self.starts_with("<!--") {
                        self.skip_until("-->");
                        continue;
                    }
                    if self.starts_with("</") {
                        self.advance(2);
                        let close = self.name()?;
                        if close != parent_name {
                            return Err(self.err(format!(
                                "mismatched close: expected </{parent_name}>, got </{close}>"
                            )));
                        }
                        self.skip_ws();
                        if self.peek() != Some('>') {
                            return Err(self.err("expected '>' in closing tag"));
                        }
                        self.pos += 1;
                        return Ok(());
                    }
                    if depth == MAX_NESTING {
                        return Err(
                            self.err(format!("elements nested deeper than {MAX_NESTING} levels"))
                        );
                    }
                    let (name, self_closing) = self.open_tag()?;
                    let el = doc.new_element(name.clone());
                    doc.append_child(parent, el);
                    if !self_closing {
                        self.content(doc, el, &name, depth + 1)?;
                    }
                }
                Some('&') => {
                    text.push(self.entity()?);
                }
                Some(c) => {
                    text.push(c);
                    self.pos += 1;
                }
            }
        }
    }

    fn entity(&mut self) -> Result<char, XmlParseError> {
        for (ent, ch) in
            [("&amp;", '&'), ("&lt;", '<'), ("&gt;", '>'), ("&quot;", '"'), ("&apos;", '\'')]
        {
            if self.starts_with(ent) {
                self.advance(ent.len());
                return Ok(ch);
            }
        }
        // Numeric character reference &#NN; / &#xHH;
        if self.starts_with("&#") {
            let start = self.pos + 2;
            let mut end = start;
            while self.chars.get(end).is_some_and(|c| *c != ';') {
                end += 1;
            }
            let body: String = self.chars[start..end].iter().collect();
            let code = if let Some(hex) = body.strip_prefix('x').or_else(|| body.strip_prefix('X'))
            {
                u32::from_str_radix(hex, 16).ok()
            } else {
                body.parse().ok()
            };
            if let Some(c) = code.and_then(char::from_u32) {
                self.pos = end + 1;
                return Ok(c);
            }
            return Err(self.err(format!("bad character reference &#{body};")));
        }
        // The paper's own sample data contains a bare '&' ("Simon & Schuster
        // Inc."); accept it leniently as literal text.
        self.pos += 1;
        Ok('&')
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_nested_document() {
        let d = parse(
            "<BookView><book><bookid>98001</bookid><title>TCP/IP Illustrated</title></book></BookView>",
        )
        .unwrap();
        assert_eq!(d.name(d.root()), Some("BookView"));
        let ids = d.select(d.root(), &["book", "bookid"]);
        assert_eq!(d.text_content(ids[0]), "98001");
    }

    #[test]
    fn whitespace_between_elements_dropped() {
        let d = parse("<a>\n  <b>x</b>\n  <c>y</c>\n</a>").unwrap();
        assert_eq!(d.child_elements(d.root()).len(), 2);
    }

    #[test]
    fn entities_decoded() {
        let d = parse("<p>Simon &amp; Schuster &lt;Inc&gt; &#65;</p>").unwrap();
        assert_eq!(d.text_content(d.root()), "Simon & Schuster <Inc> A");
    }

    #[test]
    fn bare_ampersand_tolerated() {
        let d = parse("<p>Simon & Schuster Inc.</p>").unwrap();
        assert_eq!(d.text_content(d.root()), "Simon & Schuster Inc.");
    }

    #[test]
    fn self_closing_and_comments() {
        let d = parse("<a><!-- note --><b/><c></c></a>").unwrap();
        assert_eq!(d.child_elements(d.root()).len(), 2);
    }

    #[test]
    fn mismatched_tags_rejected() {
        let e = parse("<a><b>x</c></a>").unwrap_err();
        assert!(e.message.contains("mismatched"));
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("<a/>junk").is_err());
    }

    #[test]
    fn attributes_rejected_by_default_but_ignorable() {
        assert!(parse("<a id=\"1\"/>").is_err());
        let d =
            parse_with("<a id=\"1\"><b k='v'>t</b></a>", ParseOptions { ignore_attributes: true })
                .unwrap();
        assert_eq!(d.text_content(d.root()), "t");
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        let nested = |n: usize| format!("{}{}", "<a>".repeat(n), "</a>".repeat(n));
        assert!(parse(&nested(MAX_NESTING)).is_ok());
        assert!(parse_prefix(&nested(MAX_NESTING)).is_ok());
        for n in [MAX_NESTING + 1, 100_000] {
            let err = parse(&nested(n)).unwrap_err();
            assert!(err.message.contains("nested deeper than 512"), "{err}");
            assert!(parse_prefix(&nested(n)).is_err());
        }
    }

    #[test]
    fn doctype_and_pi_skipped() {
        let d = parse("<?xml version=\"1.0\"?><!DOCTYPE a><a>x</a>").unwrap();
        assert_eq!(d.text_content(d.root()), "x");
    }
}
