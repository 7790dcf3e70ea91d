//! A minimal XML reader/writer sufficient for the PP4SE policy format
//! of paper Figure 4 (elements, attributes, text, entities, comments).
//!
//! Deliberately *not* a general XML library: no namespaces, DTDs, CDATA
//! or processing instructions — the policy format needs none of them.

use std::collections::BTreeMap;
use std::fmt;

use paradise_sql::MAX_NESTING;

/// An XML element node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlNode {
    /// Element name.
    pub name: String,
    /// Attributes in document order (BTreeMap for deterministic output).
    pub attrs: BTreeMap<String, String>,
    /// Child elements, in order.
    pub children: Vec<XmlNode>,
    /// Concatenated text content directly inside this element (trimmed).
    pub text: String,
}

impl XmlNode {
    /// New element with a name.
    pub fn new(name: impl Into<String>) -> Self {
        XmlNode {
            name: name.into(),
            attrs: BTreeMap::new(),
            children: Vec::new(),
            text: String::new(),
        }
    }

    /// Builder: set an attribute.
    #[must_use]
    pub fn with_attr(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.attrs.insert(key.into(), value.into());
        self
    }

    /// Builder: set text content.
    #[must_use]
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.text = text.into();
        self
    }

    /// Builder: add a child.
    #[must_use]
    pub fn with_child(mut self, child: XmlNode) -> Self {
        self.children.push(child);
        self
    }

    /// First child with the given element name.
    pub fn child(&self, name: &str) -> Option<&XmlNode> {
        self.children.iter().find(|c| c.name == name)
    }

    /// All children with the given element name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a XmlNode> {
        self.children.iter().filter(move |c| c.name == name)
    }

    /// Text of the first child with the given name, if present.
    pub fn child_text(&self, name: &str) -> Option<&str> {
        self.child(name).map(|c| c.text.as_str())
    }

    /// Attribute lookup.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs.get(key).map(String::as_str)
    }

    /// Serialize with 2-space indentation.
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        out.push_str(&pad);
        out.push('<');
        out.push_str(&self.name);
        for (k, v) in &self.attrs {
            out.push(' ');
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape(v));
            out.push('"');
        }
        if self.children.is_empty() && self.text.is_empty() {
            out.push_str("/>\n");
            return;
        }
        out.push('>');
        if self.children.is_empty() {
            out.push_str(&escape(&self.text));
            out.push_str("</");
            out.push_str(&self.name);
            out.push_str(">\n");
            return;
        }
        out.push('\n');
        if !self.text.is_empty() {
            out.push_str(&"  ".repeat(depth + 1));
            out.push_str(&escape(&self.text));
            out.push('\n');
        }
        for c in &self.children {
            c.write(out, depth + 1);
        }
        out.push_str(&pad);
        out.push_str("</");
        out.push_str(&self.name);
        out.push_str(">\n");
    }
}

/// Escape text/attribute content.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            other => out.push(other),
        }
    }
    out
}

/// XML parse errors with byte offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Message.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for XmlError {}

/// Parse a document into its root element. Elements nest at most
/// [`MAX_NESTING`] deep, the SQL parser's limit: a deeper document is an
/// error, not a stack overflow.
pub fn parse_xml(input: &str) -> Result<XmlNode, XmlError> {
    let mut p = XmlParser { input, pos: 0 };
    p.skip_prolog_and_ws()?;
    let root = p.parse_element(1)?;
    p.skip_ws_and_comments()?;
    if p.pos < p.input.len() {
        return Err(p.err("trailing content after root element"));
    }
    Ok(root)
}

struct XmlParser<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> XmlParser<'a> {
    fn err(&self, message: &str) -> XmlError {
        XmlError { message: message.to_string(), offset: self.pos }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn eat(&mut self, prefix: &str) -> bool {
        if self.rest().starts_with(prefix) {
            self.pos += prefix.len();
            true
        } else {
            false
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.bump();
        }
    }

    fn skip_ws_and_comments(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_ws();
            if self.eat("<!--") {
                match self.rest().find("-->") {
                    Some(i) => self.pos += i + 3,
                    None => return Err(self.err("unterminated comment")),
                }
            } else {
                return Ok(());
            }
        }
    }

    fn skip_prolog_and_ws(&mut self) -> Result<(), XmlError> {
        self.skip_ws();
        if self.eat("<?xml") {
            match self.rest().find("?>") {
                Some(i) => self.pos += i + 2,
                None => return Err(self.err("unterminated XML declaration")),
            }
        }
        self.skip_ws_and_comments()
    }

    fn parse_name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_alphanumeric() || "_-.:".contains(c)) {
            self.bump();
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(self.input[start..self.pos].to_string())
    }

    /// The element at `pos`, itself the `depth`-th open one.
    fn parse_element(&mut self, depth: usize) -> Result<XmlNode, XmlError> {
        if depth > MAX_NESTING {
            return Err(self.err(&format!("elements nest deeper than {MAX_NESTING} levels")));
        }
        if !self.eat("<") {
            return Err(self.err("expected '<'"));
        }
        let name = self.parse_name()?;
        let mut node = XmlNode::new(name);

        // attributes
        loop {
            self.skip_ws();
            match self.peek() {
                Some('/') => {
                    self.bump();
                    if !self.eat(">") {
                        return Err(self.err("expected '>' after '/'"));
                    }
                    return Ok(node);
                }
                Some('>') => {
                    self.bump();
                    break;
                }
                Some(_) => {
                    let key = self.parse_name()?;
                    self.skip_ws();
                    if !self.eat("=") {
                        return Err(self.err("expected '=' in attribute"));
                    }
                    self.skip_ws();
                    let quote = match self.bump() {
                        Some(q @ ('"' | '\'')) => q,
                        _ => return Err(self.err("expected quoted attribute value")),
                    };
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c == quote {
                            break;
                        }
                        self.bump();
                    }
                    let raw = &self.input[start..self.pos];
                    if self.bump() != Some(quote) {
                        return Err(self.err("unterminated attribute value"));
                    }
                    node.attrs.insert(key, unescape(raw));
                }
                None => return Err(self.err("unexpected end of input in tag")),
            }
        }

        // content
        let mut text = String::new();
        loop {
            if self.eat("<!--") {
                match self.rest().find("-->") {
                    Some(i) => self.pos += i + 3,
                    None => return Err(self.err("unterminated comment")),
                }
                continue;
            }
            if self.rest().starts_with("</") {
                self.pos += 2;
                let close = self.parse_name()?;
                if close != node.name {
                    return Err(self.err(&format!(
                        "mismatched closing tag </{close}> for <{}>",
                        node.name
                    )));
                }
                self.skip_ws();
                if !self.eat(">") {
                    return Err(self.err("expected '>' in closing tag"));
                }
                node.text = text.trim().to_string();
                return Ok(node);
            }
            match self.peek() {
                Some('<') => {
                    let child = self.parse_element(depth + 1)?;
                    node.children.push(child);
                }
                Some(_) => {
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c == '<' {
                            break;
                        }
                        self.bump();
                    }
                    text.push_str(&unescape(&self.input[start..self.pos]));
                }
                None => return Err(self.err("unexpected end of input in element content")),
            }
        }
    }
}

/// Resolve the five predefined entities and numeric character references.
pub fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        if c != '&' {
            out.push(c);
            continue;
        }
        let rest = &s[i + 1..];
        let Some(end) = rest.find(';') else {
            out.push('&');
            continue;
        };
        let entity = &rest[..end];
        let resolved = match entity {
            "lt" => Some('<'),
            "gt" => Some('>'),
            "amp" => Some('&'),
            "quot" => Some('"'),
            "apos" => Some('\''),
            _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                u32::from_str_radix(&entity[2..], 16).ok().and_then(char::from_u32)
            }
            _ if entity.starts_with('#') => {
                entity[1..].parse::<u32>().ok().and_then(char::from_u32)
            }
            _ => None,
        };
        match resolved {
            Some(ch) => {
                out.push(ch);
                // skip entity body and ';'
                for _ in 0..=end {
                    chars.next();
                }
            }
            None => out.push('&'),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elements_nest_at_most_the_sql_limit() {
        let nested = |n: usize| format!("{}{}", "<a>".repeat(n), "</a>".repeat(n));
        parse_xml(&nested(MAX_NESTING)).unwrap();
        let err = parse_xml(&nested(MAX_NESTING + 1)).unwrap_err();
        assert!(err.message.contains("nest deeper than 24"), "{err}");
        // far past the limit the reader stops at it: no stack overflow
        let deep = std::thread::Builder::new()
            .stack_size(1 << 20)
            .spawn(move || parse_xml(&nested(100_000)).is_err())
            .unwrap();
        assert!(deep.join().unwrap());
    }

    #[test]
    fn parses_simple_element() {
        let n = parse_xml("<a>hello</a>").unwrap();
        assert_eq!(n.name, "a");
        assert_eq!(n.text, "hello");
    }

    #[test]
    fn parses_attributes_and_children() {
        let n = parse_xml(r#"<module module_ID="ActionFilter"><attribute name="x"/></module>"#)
            .unwrap();
        assert_eq!(n.attr("module_ID"), Some("ActionFilter"));
        assert_eq!(n.children.len(), 1);
        assert_eq!(n.children[0].attr("name"), Some("x"));
    }

    #[test]
    fn resolves_entities() {
        let n = parse_xml("<c>x&gt;y &amp; z&lt;2</c>").unwrap();
        assert_eq!(n.text, "x>y & z<2");
        let n2 = parse_xml("<c>&#65;&#x42;</c>").unwrap();
        assert_eq!(n2.text, "AB");
    }

    #[test]
    fn unknown_entity_left_verbatim() {
        let n = parse_xml("<c>&nope;</c>").unwrap();
        assert_eq!(n.text, "&nope;");
    }

    #[test]
    fn skips_prolog_and_comments() {
        let n = parse_xml("<?xml version=\"1.0\"?><!-- hi --><a><!-- inner --><b/></a>")
            .unwrap();
        assert_eq!(n.children.len(), 1);
    }

    #[test]
    fn self_closing_tags() {
        let n = parse_xml("<a><b/><c x='1'/></a>").unwrap();
        assert_eq!(n.children.len(), 2);
        assert_eq!(n.children[1].attr("x"), Some("1"));
    }

    #[test]
    fn mismatched_close_is_error() {
        assert!(parse_xml("<a><b></a></b>").is_err());
    }

    #[test]
    fn trailing_garbage_is_error() {
        assert!(parse_xml("<a/><b/>").is_err());
    }

    #[test]
    fn unterminated_is_error() {
        assert!(parse_xml("<a><b>").is_err());
        assert!(parse_xml("<a attr=>").is_err());
    }

    #[test]
    fn serialisation_roundtrip() {
        let doc = XmlNode::new("module")
            .with_attr("module_ID", "ActionFilter")
            .with_child(
                XmlNode::new("attribute")
                    .with_attr("name", "z")
                    .with_child(XmlNode::new("allow").with_text("true"))
                    .with_child(XmlNode::new("condition").with_text("z<2")),
            );
        let xml = doc.to_xml();
        assert!(xml.contains("z&lt;2"));
        let back = parse_xml(&xml).unwrap();
        assert_eq!(doc, back);
    }

    #[test]
    fn whitespace_in_text_is_trimmed() {
        let n = parse_xml("<a>\n   spaced   \n</a>").unwrap();
        assert_eq!(n.text, "spaced");
    }

    #[test]
    fn child_accessors() {
        let n = parse_xml("<a><b>1</b><b>2</b><c>3</c></a>").unwrap();
        assert_eq!(n.child_text("c"), Some("3"));
        assert_eq!(n.children_named("b").count(), 2);
        assert!(n.child("zz").is_none());
    }

    #[test]
    fn escape_covers_all_specials() {
        assert_eq!(escape("<&>\"'"), "&lt;&amp;&gt;&quot;&apos;");
    }
}
