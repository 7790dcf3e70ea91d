//! Recursive-descent parser for the SQL subset.
//!
//! Grammar (informal):
//!
//! ```text
//! query      := select (UNION [ALL] select)* [';']
//! select     := SELECT [DISTINCT|ALL] items [FROM table] [WHERE expr]
//!               [GROUP BY exprs] [HAVING expr] [ORDER BY order_items]
//!               [LIMIT n] [OFFSET n]
//! items      := item (',' item)*
//! item       := '*' | ident '.' '*' | expr [[AS] ident]
//! table      := factor (join_clause)*
//! factor     := ident [[AS] ident] | '(' query ')' [[AS] ident]
//! join       := [INNER|LEFT [OUTER]|RIGHT [OUTER]|FULL [OUTER]|CROSS] JOIN
//!               factor [ON expr | USING '(' idents ')']
//! expr       := precedence-climbing over OR < AND < NOT < comparison
//!               < additive < multiplicative < unary < postfix < primary
//! ```
//!
//! Nesting is bounded: every expression, query block, parenthesised
//! join and prefix `NOT`/sign opens one level, and past
//! [`MAX_NESTING`] open levels the parse fails with
//! [`ParseErrorKind::TooDeep`] instead of overflowing the parsing
//! thread's stack.

use crate::ast::{
    BinaryOp, CaseBranch, ColumnRef, Expr, FunctionCall, JoinKind, Literal, OrderByItem, Query,
    SelectItem, SortOrder, TableRef, UnaryOp, WindowSpec,
};
use crate::error::{Location, ParseError, ParseErrorKind, ParseResult};
use crate::lexer::Lexer;
use crate::token::{Keyword, Token, TokenKind};

/// The deepest nesting the SQL parser and the policy XML reader accept
/// (see the module docs). The deepest input that the tests, the
/// examples, the experiments and the benchmark parse opens 5 levels of
/// SQL and 7 of policy XML. Parsing up to the limit fits on half of a
/// connection thread's 2 MiB stack in a debug build and on a
/// fifteenth of it in a release build
/// (`tests::the_nesting_limit_fits_half_a_connection_stack`).
pub const MAX_NESTING: usize = 24;

/// Parse a single `SELECT` query (optionally `UNION`-chained, optionally
/// terminated by `;`) from `src`.
pub fn parse_query(src: &str) -> ParseResult<Query> {
    let mut parser = Parser::new(src)?;
    let query = parser.parse_query()?;
    parser.eat_kind(&TokenKind::Semicolon);
    parser.expect_eof()?;
    Ok(query)
}

/// Parse a standalone scalar/boolean expression (used for policy
/// conditions such as `x > y` or `SUM(z) > 100`).
pub fn parse_expr(src: &str) -> ParseResult<Expr> {
    let mut parser = Parser::new(src)?;
    let expr = parser.parse_expr()?;
    parser.expect_eof()?;
    Ok(expr)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Location of the end of input, for EOF errors.
    end: Location,
    /// Nesting levels open at `pos` (see [`MAX_NESTING`]).
    depth: usize,
}

impl Parser {
    fn new(src: &str) -> ParseResult<Self> {
        let tokens = Lexer::tokenize(src)?;
        let end = tokens
            .last()
            .map(|t| t.location)
            .unwrap_or(Location::START);
        Ok(Parser { tokens, pos: 0, end, depth: 0 })
    }

    // ------------------------------------------------------------------
    // token helpers
    // ------------------------------------------------------------------

    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    /// Unconsumed token count — the input-length signal the AST list
    /// vectors reserve their capacity from.
    fn remaining(&self) -> usize {
        self.tokens.len() - self.pos
    }

    fn peek_at(&self, n: usize) -> Option<&TokenKind> {
        self.tokens.get(self.pos + n).map(|t| &t.kind)
    }

    fn location(&self) -> Location {
        self.tokens.get(self.pos).map(|t| t.location).unwrap_or(self.end)
    }

    fn advance(&mut self) -> Option<&Token> {
        let t = self.tokens.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_keyword(&self, k: Keyword) -> bool {
        matches!(self.peek(), Some(TokenKind::Keyword(kk)) if *kk == k)
    }

    fn eat_keyword(&mut self, k: Keyword) -> bool {
        if self.at_keyword(k) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_kind(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == Some(kind) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, k: Keyword) -> ParseResult<()> {
        if self.eat_keyword(k) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("keyword {}", k.as_str())))
        }
    }

    fn expect_kind(&mut self, kind: TokenKind) -> ParseResult<()> {
        if self.eat_kind(&kind) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("'{kind}'")))
        }
    }

    fn expect_eof(&self) -> ParseResult<()> {
        match self.peek() {
            None => Ok(()),
            Some(t) => Err(ParseError::new(
                ParseErrorKind::UnexpectedToken {
                    found: t.describe(),
                    expected: "end of input".into(),
                },
                self.location(),
            )),
        }
    }

    /// Run `f` one nesting level deeper, failing past [`MAX_NESTING`].
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> ParseResult<T>) -> ParseResult<T> {
        if self.depth == MAX_NESTING {
            return Err(ParseError::new(ParseErrorKind::TooDeep(MAX_NESTING), self.location()));
        }
        self.depth += 1;
        let result = f(self);
        self.depth -= 1;
        result
    }

    fn unexpected(&self, expected: &str) -> ParseError {
        match self.peek() {
            Some(t) => ParseError::new(
                ParseErrorKind::UnexpectedToken {
                    found: t.describe(),
                    expected: expected.to_string(),
                },
                self.location(),
            ),
            None => ParseError::new(
                ParseErrorKind::UnexpectedEof { expected: expected.to_string() },
                self.end,
            ),
        }
    }

    /// Accept an identifier (bare or quoted). Keywords are not identifiers.
    ///
    /// The token's `String` is *moved* into the AST (tokens are consumed
    /// strictly left-to-right, never re-read), so an identifier costs
    /// exactly the one allocation made by the lexer.
    fn parse_ident(&mut self) -> ParseResult<String> {
        match self.peek() {
            Some(TokenKind::Ident(_)) | Some(TokenKind::QuotedIdent(_)) => {
                let pos = self.pos;
                self.pos += 1;
                match &mut self.tokens[pos].kind {
                    TokenKind::Ident(s) | TokenKind::QuotedIdent(s) => Ok(std::mem::take(s)),
                    _ => unreachable!(),
                }
            }
            _ => Err(self.unexpected("identifier")),
        }
    }

    // ------------------------------------------------------------------
    // query
    // ------------------------------------------------------------------

    fn parse_query(&mut self) -> ParseResult<Query> {
        self.nested(|p| {
            let mut query = p.parse_select()?;
            while p.eat_keyword(Keyword::Union) {
                let all = p.eat_keyword(Keyword::All);
                let next = p.parse_select()?;
                query.unions.push((all, next));
            }
            Ok(query)
        })
    }

    fn parse_select(&mut self) -> ParseResult<Query> {
        self.expect_keyword(Keyword::Select)?;
        let distinct = if self.eat_keyword(Keyword::Distinct) {
            true
        } else {
            self.eat_keyword(Keyword::All);
            false
        };

        // reserve the AST list vectors from the unconsumed token count:
        // a select item costs at least ~2 tokens, so `remaining / 8` is
        // a conservative lower-bound guess that kills the 0→1→2→4
        // realloc ladder without over-allocating short queries
        let mut items = Vec::with_capacity((self.remaining() / 8).clamp(1, 16));
        items.push(self.parse_select_item()?);
        while self.eat_kind(&TokenKind::Comma) {
            items.push(self.parse_select_item()?);
        }

        let from = if self.eat_keyword(Keyword::From) {
            Some(self.parse_table_ref()?)
        } else {
            None
        };

        let where_clause =
            if self.eat_keyword(Keyword::Where) { Some(self.parse_expr()?) } else { None };

        let mut group_by = Vec::new();
        if self.eat_keyword(Keyword::Group) {
            self.expect_keyword(Keyword::By)?;
            group_by.reserve((self.remaining() / 4).clamp(1, 8));
            group_by.push(self.parse_expr()?);
            while self.eat_kind(&TokenKind::Comma) {
                group_by.push(self.parse_expr()?);
            }
        }

        let having =
            if self.eat_keyword(Keyword::Having) { Some(self.parse_expr()?) } else { None };

        let mut order_by = Vec::new();
        if self.eat_keyword(Keyword::Order) {
            self.expect_keyword(Keyword::By)?;
            order_by.reserve((self.remaining() / 4).clamp(1, 8));
            order_by.push(self.parse_order_item()?);
            while self.eat_kind(&TokenKind::Comma) {
                order_by.push(self.parse_order_item()?);
            }
        }

        let limit = if self.eat_keyword(Keyword::Limit) { Some(self.parse_count()?) } else { None };
        let offset =
            if self.eat_keyword(Keyword::Offset) { Some(self.parse_count()?) } else { None };

        Ok(Query {
            distinct,
            items,
            from,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
            offset,
            unions: Vec::new(),
        })
    }

    fn parse_count(&mut self) -> ParseResult<u64> {
        let location = self.location();
        match self.peek() {
            Some(TokenKind::Integer(v)) => {
                let v = *v;
                self.advance();
                u64::try_from(v).map_err(|_| {
                    ParseError::new(
                        ParseErrorKind::Semantic("LIMIT/OFFSET must be non-negative".into()),
                        location,
                    )
                })
            }
            _ => Err(self.unexpected("non-negative integer")),
        }
    }

    fn parse_select_item(&mut self) -> ParseResult<SelectItem> {
        if self.eat_kind(&TokenKind::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // qualified wildcard: ident '.' '*'
        if matches!(self.peek(), Some(TokenKind::Ident(_)) | Some(TokenKind::QuotedIdent(_)))
            && self.peek_at(1) == Some(&TokenKind::Dot)
            && self.peek_at(2) == Some(&TokenKind::Star)
        {
            let qualifier = self.parse_ident()?;
            self.advance(); // '.'
            self.advance(); // '*'
            return Ok(SelectItem::QualifiedWildcard(qualifier));
        }
        let expr = self.parse_expr()?;
        let alias = self.parse_alias()?;
        Ok(SelectItem::Expr { expr, alias })
    }

    /// `[AS] ident` — AS is optional, but a bare keyword never becomes an
    /// implicit alias.
    fn parse_alias(&mut self) -> ParseResult<Option<String>> {
        if self.eat_keyword(Keyword::As) {
            return self.parse_ident().map(Some);
        }
        match self.peek() {
            Some(TokenKind::Ident(_)) | Some(TokenKind::QuotedIdent(_)) => {
                self.parse_ident().map(Some)
            }
            _ => Ok(None),
        }
    }

    fn parse_order_item(&mut self) -> ParseResult<OrderByItem> {
        let expr = self.parse_expr()?;
        let order = if self.eat_keyword(Keyword::Desc) {
            SortOrder::Desc
        } else {
            self.eat_keyword(Keyword::Asc);
            SortOrder::Asc
        };
        Ok(OrderByItem { expr, order })
    }

    // ------------------------------------------------------------------
    // FROM clause
    // ------------------------------------------------------------------

    fn parse_table_ref(&mut self) -> ParseResult<TableRef> {
        let mut left = self.parse_table_factor()?;
        loop {
            let kind = if self.eat_keyword(Keyword::Cross) {
                self.expect_keyword(Keyword::Join)?;
                Some(JoinKind::Cross)
            } else if self.eat_keyword(Keyword::Inner) {
                self.expect_keyword(Keyword::Join)?;
                Some(JoinKind::Inner)
            } else if self.eat_keyword(Keyword::Left) {
                self.eat_keyword(Keyword::Outer);
                self.expect_keyword(Keyword::Join)?;
                Some(JoinKind::Left)
            } else if self.eat_keyword(Keyword::Right) {
                self.eat_keyword(Keyword::Outer);
                self.expect_keyword(Keyword::Join)?;
                Some(JoinKind::Right)
            } else if self.eat_keyword(Keyword::Full) {
                self.eat_keyword(Keyword::Outer);
                self.expect_keyword(Keyword::Join)?;
                Some(JoinKind::Full)
            } else if self.eat_keyword(Keyword::Join) {
                Some(JoinKind::Inner)
            } else {
                None
            };
            let Some(kind) = kind else { break };
            let right = self.parse_table_factor()?;
            let on = if kind == JoinKind::Cross {
                None
            } else if self.eat_keyword(Keyword::On) {
                Some(self.parse_expr()?)
            } else if self.eat_keyword(Keyword::Using) {
                // Desugar USING (a, b) into left.a = right.a AND left.b = right.b
                self.expect_kind(TokenKind::LParen)?;
                let mut cols = vec![self.parse_ident()?];
                while self.eat_kind(&TokenKind::Comma) {
                    cols.push(self.parse_ident()?);
                }
                self.expect_kind(TokenKind::RParen)?;
                let lname = left.visible_name().map(str::to_string);
                let rname = right.visible_name().map(str::to_string);
                let mut pred: Option<Expr> = None;
                for c in cols {
                    let l = match &lname {
                        Some(q) => ColumnRef::qualified(q.clone(), c.clone()),
                        None => ColumnRef::bare(c.clone()),
                    };
                    let r = match &rname {
                        Some(q) => ColumnRef::qualified(q.clone(), c.clone()),
                        None => ColumnRef::bare(c.clone()),
                    };
                    let eq = Expr::binary(Expr::Column(l), BinaryOp::Eq, Expr::Column(r));
                    pred = Expr::and_maybe(pred, Some(eq));
                }
                pred
            } else {
                return Err(self.unexpected("ON or USING"));
            };
            left = TableRef::Join { left: Box::new(left), right: Box::new(right), kind, on };
        }
        Ok(left)
    }

    fn parse_table_factor(&mut self) -> ParseResult<TableRef> {
        if self.eat_kind(&TokenKind::LParen) {
            // Either a derived table `(SELECT …)` or a parenthesised join.
            if self.at_keyword(Keyword::Select) {
                let query = self.parse_query()?;
                self.expect_kind(TokenKind::RParen)?;
                let alias = self.parse_alias()?;
                return Ok(TableRef::Subquery { query: Box::new(query), alias });
            }
            let inner = self.nested(Self::parse_table_ref)?;
            self.expect_kind(TokenKind::RParen)?;
            return Ok(inner);
        }
        let name = self.parse_ident()?;
        let alias = self.parse_alias()?;
        Ok(TableRef::Table { name, alias })
    }

    // ------------------------------------------------------------------
    // expressions (precedence climbing)
    // ------------------------------------------------------------------

    fn parse_expr(&mut self) -> ParseResult<Expr> {
        self.nested(Self::parse_or)
    }

    fn parse_or(&mut self) -> ParseResult<Expr> {
        let mut left = self.parse_and()?;
        while self.eat_keyword(Keyword::Or) {
            let right = self.parse_and()?;
            left = Expr::binary(left, BinaryOp::Or, right);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> ParseResult<Expr> {
        let mut left = self.parse_not()?;
        while self.eat_keyword(Keyword::And) {
            let right = self.parse_not()?;
            left = Expr::binary(left, BinaryOp::And, right);
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> ParseResult<Expr> {
        if self.eat_keyword(Keyword::Not) {
            let inner = self.nested(Self::parse_not)?;
            Ok(Expr::Unary { op: UnaryOp::Not, expr: Box::new(inner) })
        } else {
            self.parse_comparison()
        }
    }

    fn parse_comparison(&mut self) -> ParseResult<Expr> {
        let left = self.parse_additive()?;

        // postfix predicates: IS [NOT] NULL, [NOT] BETWEEN, [NOT] IN, LIKE
        if self.eat_keyword(Keyword::Is) {
            let negated = self.eat_keyword(Keyword::Not);
            self.expect_keyword(Keyword::Null)?;
            return Ok(Expr::IsNull { expr: Box::new(left), negated });
        }
        let negated = self.eat_keyword(Keyword::Not);
        if self.eat_keyword(Keyword::Between) {
            let low = self.parse_additive()?;
            self.expect_keyword(Keyword::And)?;
            let high = self.parse_additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_keyword(Keyword::In) {
            self.expect_kind(TokenKind::LParen)?;
            let mut list = vec![self.parse_expr()?];
            while self.eat_kind(&TokenKind::Comma) {
                list.push(self.parse_expr()?);
            }
            self.expect_kind(TokenKind::RParen)?;
            return Ok(Expr::InList { expr: Box::new(left), list, negated });
        }
        if self.eat_keyword(Keyword::Like) {
            let pattern = self.parse_additive()?;
            let like = Expr::binary(left, BinaryOp::Like, pattern);
            return Ok(if negated {
                Expr::Unary { op: UnaryOp::Not, expr: Box::new(like) }
            } else {
                like
            });
        }
        if negated {
            return Err(self.unexpected("BETWEEN, IN or LIKE after NOT"));
        }

        let op = match self.peek() {
            Some(TokenKind::Eq) => Some(BinaryOp::Eq),
            Some(TokenKind::NotEq) => Some(BinaryOp::NotEq),
            Some(TokenKind::Lt) => Some(BinaryOp::Lt),
            Some(TokenKind::LtEq) => Some(BinaryOp::LtEq),
            Some(TokenKind::Gt) => Some(BinaryOp::Gt),
            Some(TokenKind::GtEq) => Some(BinaryOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let right = self.parse_additive()?;
            return Ok(Expr::binary(left, op, right));
        }
        Ok(left)
    }

    fn parse_additive(&mut self) -> ParseResult<Expr> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(TokenKind::Plus) => BinaryOp::Plus,
                Some(TokenKind::Minus) => BinaryOp::Minus,
                Some(TokenKind::Concat) => BinaryOp::Concat,
                _ => break,
            };
            self.advance();
            let right = self.parse_multiplicative()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> ParseResult<Expr> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(TokenKind::Star) => BinaryOp::Multiply,
                Some(TokenKind::Slash) => BinaryOp::Divide,
                Some(TokenKind::Percent) => BinaryOp::Modulo,
                _ => break,
            };
            self.advance();
            let right = self.parse_unary()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> ParseResult<Expr> {
        if self.eat_kind(&TokenKind::Minus) {
            let inner = self.nested(Self::parse_unary)?;
            // fold `-<numeric literal>` into a negative literal so that
            // rendering round-trips (`-1` ≡ Literal(-1))
            return Ok(match inner {
                Expr::Literal(Literal::Integer(v)) => Expr::Literal(Literal::Integer(-v)),
                Expr::Literal(Literal::Float(v)) => Expr::Literal(Literal::Float(-v)),
                other => Expr::Unary { op: UnaryOp::Minus, expr: Box::new(other) },
            });
        }
        if self.eat_kind(&TokenKind::Plus) {
            let inner = self.nested(Self::parse_unary)?;
            return Ok(Expr::Unary { op: UnaryOp::Plus, expr: Box::new(inner) });
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> ParseResult<Expr> {
        match self.peek() {
            Some(TokenKind::Integer(v)) => {
                let v = *v;
                self.advance();
                Ok(Expr::Literal(Literal::Integer(v)))
            }
            Some(TokenKind::Float(v)) => {
                let v = *v;
                self.advance();
                Ok(Expr::Literal(Literal::Float(v)))
            }
            Some(TokenKind::String(_)) => {
                let pos = self.pos;
                self.pos += 1;
                let TokenKind::String(s) = &mut self.tokens[pos].kind else { unreachable!() };
                Ok(Expr::Literal(Literal::String(std::mem::take(s))))
            }
            Some(TokenKind::Keyword(Keyword::Null)) => {
                self.advance();
                Ok(Expr::Literal(Literal::Null))
            }
            Some(TokenKind::Keyword(Keyword::True)) => {
                self.advance();
                Ok(Expr::Literal(Literal::Boolean(true)))
            }
            Some(TokenKind::Keyword(Keyword::False)) => {
                self.advance();
                Ok(Expr::Literal(Literal::Boolean(false)))
            }
            Some(TokenKind::Keyword(Keyword::Case)) => self.parse_case(),
            Some(TokenKind::Keyword(Keyword::Cast)) => self.parse_cast(),
            Some(TokenKind::Keyword(Keyword::Exists)) => {
                self.advance();
                self.expect_kind(TokenKind::LParen)?;
                let q = self.parse_query()?;
                self.expect_kind(TokenKind::RParen)?;
                Ok(Expr::Exists(Box::new(q)))
            }
            Some(TokenKind::LParen) => {
                self.advance();
                if self.at_keyword(Keyword::Select) {
                    let q = self.parse_query()?;
                    self.expect_kind(TokenKind::RParen)?;
                    return Ok(Expr::Subquery(Box::new(q)));
                }
                let inner = self.parse_expr()?;
                self.expect_kind(TokenKind::RParen)?;
                Ok(inner)
            }
            Some(TokenKind::Ident(_)) | Some(TokenKind::QuotedIdent(_)) => {
                self.parse_ident_expr()
            }
            _ => Err(self.unexpected("expression")),
        }
    }

    /// identifier-led expressions: column refs, qualified refs, function
    /// calls (with optional DISTINCT and OVER).
    fn parse_ident_expr(&mut self) -> ParseResult<Expr> {
        let first = self.parse_ident()?;

        if self.eat_kind(&TokenKind::LParen) {
            return self.parse_function_rest(first);
        }

        if self.eat_kind(&TokenKind::Dot) {
            let second = self.parse_ident()?;
            return Ok(Expr::Column(ColumnRef::qualified(first, second)));
        }

        Ok(Expr::Column(ColumnRef::bare(first)))
    }

    fn parse_function_rest(&mut self, name: String) -> ParseResult<Expr> {
        let mut distinct = false;
        // almost every call has 1–2 arguments (AVG(z), regr_intercept(y, x))
        let mut args = Vec::with_capacity(2);
        if !self.eat_kind(&TokenKind::RParen) {
            if self.eat_keyword(Keyword::Distinct) {
                distinct = true;
            }
            if self.eat_kind(&TokenKind::Star) {
                args.push(Expr::Wildcard);
            } else {
                args.push(self.parse_expr()?);
                while self.eat_kind(&TokenKind::Comma) {
                    args.push(self.parse_expr()?);
                }
            }
            self.expect_kind(TokenKind::RParen)?;
        }

        let over = if self.eat_keyword(Keyword::Over) {
            self.expect_kind(TokenKind::LParen)?;
            let mut spec = WindowSpec::default();
            if self.eat_keyword(Keyword::Partition) {
                self.expect_keyword(Keyword::By)?;
                spec.partition_by.push(self.parse_expr()?);
                while self.eat_kind(&TokenKind::Comma) {
                    spec.partition_by.push(self.parse_expr()?);
                }
            }
            if self.eat_keyword(Keyword::Order) {
                self.expect_keyword(Keyword::By)?;
                spec.order_by.push(self.parse_order_item()?);
                while self.eat_kind(&TokenKind::Comma) {
                    spec.order_by.push(self.parse_order_item()?);
                }
            }
            self.expect_kind(TokenKind::RParen)?;
            Some(spec)
        } else {
            None
        };

        Ok(Expr::Function(FunctionCall { name, args, distinct, over }))
    }

    fn parse_case(&mut self) -> ParseResult<Expr> {
        self.expect_keyword(Keyword::Case)?;
        let operand = if self.at_keyword(Keyword::When) {
            None
        } else {
            Some(Box::new(self.parse_expr()?))
        };
        let mut branches = Vec::new();
        while self.eat_keyword(Keyword::When) {
            let when = self.parse_expr()?;
            self.expect_keyword(Keyword::Then)?;
            let then = self.parse_expr()?;
            branches.push(CaseBranch { when, then });
        }
        if branches.is_empty() {
            return Err(self.unexpected("WHEN"));
        }
        let else_result = if self.eat_keyword(Keyword::Else) {
            Some(Box::new(self.parse_expr()?))
        } else {
            None
        };
        self.expect_keyword(Keyword::End)?;
        Ok(Expr::Case { operand, branches, else_result })
    }

    fn parse_cast(&mut self) -> ParseResult<Expr> {
        self.expect_keyword(Keyword::Cast)?;
        self.expect_kind(TokenKind::LParen)?;
        let expr = self.parse_expr()?;
        self.expect_keyword(Keyword::As)?;
        let type_name = self.parse_ident()?;
        self.expect_kind(TokenKind::RParen)?;
        Ok(Expr::Cast { expr: Box::new(expr), type_name })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_select() {
        let q = parse_query("SELECT 1").unwrap();
        assert_eq!(q.items.len(), 1);
        assert!(q.from.is_none());
    }

    #[test]
    fn parses_select_star() {
        let q = parse_query("SELECT * FROM stream").unwrap();
        assert!(q.has_wildcard());
        assert_eq!(q.from.as_ref().unwrap().visible_name(), Some("stream"));
    }

    #[test]
    fn parses_sensor_query_from_paper() {
        let q = parse_query("SELECT * FROM stream WHERE z < 2").unwrap();
        let w = q.where_clause.unwrap();
        assert_eq!(w, Expr::binary(Expr::col("z"), BinaryOp::Lt, Expr::int(2)));
    }

    #[test]
    fn parses_appliance_query_from_paper() {
        let q = parse_query("SELECT x, y, z, t FROM d1 WHERE x > y").unwrap();
        assert_eq!(q.items.len(), 4);
        let w = q.where_clause.unwrap();
        assert_eq!(w, Expr::binary(Expr::col("x"), BinaryOp::Gt, Expr::col("y")));
    }

    #[test]
    fn parses_media_center_query_from_paper() {
        let q = parse_query(
            "SELECT x, y, AVG(z) AS zAVG, t FROM d2 GROUP BY x, y HAVING SUM(z) > 100",
        )
        .unwrap();
        assert_eq!(q.group_by.len(), 2);
        assert!(q.having.is_some());
        assert_eq!(q.items[2].output_name(), Some("zAVG"));
    }

    #[test]
    fn parses_window_query_from_paper() {
        let q = parse_query(
            "SELECT regr_intercept(y, x) OVER (PARTITION BY zAVG ORDER BY t) FROM d3",
        )
        .unwrap();
        let SelectItem::Expr { expr: Expr::Function(f), .. } = &q.items[0] else {
            panic!("expected function item");
        };
        assert_eq!(f.name, "regr_intercept");
        assert_eq!(f.args.len(), 2);
        let over = f.over.as_ref().unwrap();
        assert_eq!(over.partition_by, vec![Expr::col("zAVG")]);
        assert_eq!(over.order_by.len(), 1);
    }

    #[test]
    fn parses_full_nested_query_from_paper() {
        let q = parse_query(
            "SELECT regr_intercept(y, x) OVER (PARTITION BY zAVG ORDER BY t) \
             FROM (SELECT x, y, AVG(z) AS zAVG, t FROM d \
                   WHERE x > y AND z < 2 GROUP BY x, y HAVING SUM(z) > 100)",
        )
        .unwrap();
        assert_eq!(q.nesting_depth(), 2);
        let inner = q.innermost();
        assert_eq!(inner.group_by.len(), 2);
        let conjuncts = inner.where_clause.as_ref().unwrap().conjuncts().len();
        assert_eq!(conjuncts, 2);
    }

    #[test]
    fn parses_count_star() {
        let q = parse_query("SELECT COUNT(*) FROM d").unwrap();
        let SelectItem::Expr { expr: Expr::Function(f), .. } = &q.items[0] else {
            panic!();
        };
        assert_eq!(f.args, vec![Expr::Wildcard]);
    }

    #[test]
    fn parses_count_distinct() {
        let q = parse_query("SELECT COUNT(DISTINCT tag) FROM ubisense").unwrap();
        let SelectItem::Expr { expr: Expr::Function(f), .. } = &q.items[0] else {
            panic!();
        };
        assert!(f.distinct);
    }

    #[test]
    fn parses_joins() {
        let q = parse_query(
            "SELECT u.x, s.pressure FROM ubisense u JOIN sensfloor s ON u.t = s.t",
        )
        .unwrap();
        let TableRef::Join { kind, on, .. } = q.from.as_ref().unwrap() else {
            panic!("expected join");
        };
        assert_eq!(*kind, JoinKind::Inner);
        assert!(on.is_some());
    }

    #[test]
    fn parses_left_outer_join() {
        let q = parse_query("SELECT * FROM a LEFT OUTER JOIN b ON a.k = b.k").unwrap();
        let TableRef::Join { kind, .. } = q.from.as_ref().unwrap() else { panic!() };
        assert_eq!(*kind, JoinKind::Left);
    }

    #[test]
    fn parses_cross_join_without_on() {
        let q = parse_query("SELECT * FROM a CROSS JOIN b").unwrap();
        let TableRef::Join { kind, on, .. } = q.from.as_ref().unwrap() else { panic!() };
        assert_eq!(*kind, JoinKind::Cross);
        assert!(on.is_none());
    }

    #[test]
    fn desugars_using_join() {
        let q = parse_query("SELECT * FROM a JOIN b USING (k)").unwrap();
        let TableRef::Join { on, .. } = q.from.as_ref().unwrap() else { panic!() };
        let on = on.as_ref().unwrap();
        assert_eq!(
            *on,
            Expr::binary(
                Expr::Column(ColumnRef::qualified("a", "k")),
                BinaryOp::Eq,
                Expr::Column(ColumnRef::qualified("b", "k")),
            )
        );
    }

    #[test]
    fn join_missing_on_is_error() {
        assert!(parse_query("SELECT * FROM a JOIN b").is_err());
    }

    #[test]
    fn parses_order_limit_offset() {
        let q = parse_query("SELECT x FROM d ORDER BY x DESC, y LIMIT 10 OFFSET 5").unwrap();
        assert_eq!(q.order_by.len(), 2);
        assert_eq!(q.order_by[0].order, SortOrder::Desc);
        assert_eq!(q.order_by[1].order, SortOrder::Asc);
        assert_eq!(q.limit, Some(10));
        assert_eq!(q.offset, Some(5));
    }

    #[test]
    fn negative_limit_is_error() {
        // `-1` lexes as minus then integer; parser rejects non-integer LIMIT.
        assert!(parse_query("SELECT x FROM d LIMIT -1").is_err());
    }

    #[test]
    fn parses_between_and_in() {
        let e = parse_expr("x BETWEEN 1 AND 5").unwrap();
        assert!(matches!(e, Expr::Between { negated: false, .. }));
        let e = parse_expr("x NOT IN (1, 2, 3)").unwrap();
        assert!(matches!(e, Expr::InList { negated: true, .. }));
    }

    #[test]
    fn parses_is_null() {
        let e = parse_expr("valid IS NOT NULL").unwrap();
        assert!(matches!(e, Expr::IsNull { negated: true, .. }));
    }

    #[test]
    fn parses_case_expression() {
        let e = parse_expr(
            "CASE WHEN z < 1 THEN 'low' WHEN z < 2 THEN 'mid' ELSE 'high' END",
        )
        .unwrap();
        let Expr::Case { operand, branches, else_result } = e else { panic!() };
        assert!(operand.is_none());
        assert_eq!(branches.len(), 2);
        assert!(else_result.is_some());
    }

    #[test]
    fn parses_case_with_operand() {
        let e = parse_expr("CASE action WHEN 'walk' THEN 1 ELSE 0 END").unwrap();
        let Expr::Case { operand, .. } = e else { panic!() };
        assert!(operand.is_some());
    }

    #[test]
    fn parses_cast() {
        let e = parse_expr("CAST(z AS INTEGER)").unwrap();
        let Expr::Cast { type_name, .. } = e else { panic!() };
        assert_eq!(type_name, "INTEGER");
    }

    #[test]
    fn precedence_or_and() {
        // a OR b AND c == a OR (b AND c)
        let e = parse_expr("a OR b AND c").unwrap();
        let Expr::Binary { op: BinaryOp::Or, right, .. } = e else { panic!() };
        assert!(matches!(*right, Expr::Binary { op: BinaryOp::And, .. }));
    }

    #[test]
    fn precedence_arithmetic() {
        // 1 + 2 * 3 == 1 + (2 * 3)
        let e = parse_expr("1 + 2 * 3").unwrap();
        let Expr::Binary { op: BinaryOp::Plus, right, .. } = e else { panic!() };
        assert!(matches!(*right, Expr::Binary { op: BinaryOp::Multiply, .. }));
    }

    #[test]
    fn precedence_not_binds_tighter_than_and() {
        let e = parse_expr("NOT a AND b").unwrap();
        assert!(matches!(e, Expr::Binary { op: BinaryOp::And, .. }));
    }

    #[test]
    fn parenthesised_expressions() {
        let e = parse_expr("(1 + 2) * 3").unwrap();
        let Expr::Binary { op: BinaryOp::Multiply, left, .. } = e else { panic!() };
        assert!(matches!(*left, Expr::Binary { op: BinaryOp::Plus, .. }));
    }

    #[test]
    fn parses_scalar_subquery() {
        let e = parse_expr("x > (SELECT AVG(z) FROM d)").unwrap();
        let Expr::Binary { right, .. } = e else { panic!() };
        assert!(matches!(*right, Expr::Subquery(_)));
    }

    #[test]
    fn parses_exists() {
        let e = parse_expr("EXISTS (SELECT 1 FROM d WHERE z < 2)").unwrap();
        assert!(matches!(e, Expr::Exists(_)));
    }

    #[test]
    fn parses_union() {
        let q = parse_query("SELECT x FROM a UNION ALL SELECT x FROM b UNION SELECT x FROM c")
            .unwrap();
        assert_eq!(q.unions.len(), 2);
        assert!(q.unions[0].0);
        assert!(!q.unions[1].0);
    }

    #[test]
    fn parses_qualified_wildcard() {
        let q = parse_query("SELECT u.* FROM ubisense u").unwrap();
        assert!(matches!(&q.items[0], SelectItem::QualifiedWildcard(s) if s == "u"));
    }

    #[test]
    fn alias_without_as() {
        let q = parse_query("SELECT AVG(z) zavg FROM d").unwrap();
        assert_eq!(q.items[0].output_name(), Some("zavg"));
    }

    #[test]
    fn trailing_garbage_is_error() {
        assert!(parse_query("SELECT x FROM d garbage garbage").is_err());
        assert!(parse_query("SELECT x FROM d;").is_ok());
    }

    #[test]
    fn error_reports_position() {
        let err = parse_query("SELECT FROM d").unwrap_err();
        assert_eq!(err.location.line, 1);
        assert!(err.to_string().contains("expected"));
    }

    #[test]
    fn missing_from_after_comma_is_error() {
        assert!(parse_query("SELECT x, FROM d").is_err());
    }

    #[test]
    fn keywords_cannot_be_aliases() {
        // `FROM` must not be swallowed as an implicit alias.
        let q = parse_query("SELECT x FROM d").unwrap();
        assert_eq!(q.items[0].output_name(), Some("x"));
    }

    #[test]
    fn parses_quoted_identifiers() {
        let q = parse_query("SELECT \"weird col\" FROM \"weird table\"").unwrap();
        assert_eq!(q.items[0].output_name(), Some("weird col"));
    }

    #[test]
    fn parses_deeply_nested_subqueries() {
        let q = parse_query(
            "SELECT * FROM (SELECT * FROM (SELECT * FROM (SELECT * FROM d1)))",
        )
        .unwrap();
        assert_eq!(q.nesting_depth(), 4);
        assert_eq!(q.innermost().from.as_ref().unwrap().visible_name(), Some("d1"));
    }

    #[test]
    fn window_without_partition() {
        let q = parse_query("SELECT SUM(z) OVER (ORDER BY t) FROM d").unwrap();
        let SelectItem::Expr { expr: Expr::Function(f), .. } = &q.items[0] else { panic!() };
        let over = f.over.as_ref().unwrap();
        assert!(over.partition_by.is_empty());
        assert_eq!(over.order_by.len(), 1);
    }

    /// `open` `n` times, then `core`, then `close` `n` times.
    fn nest(open: &str, core: &str, close: &str, n: usize) -> String {
        format!("{}{core}{}", open.repeat(n), close.repeat(n))
    }

    #[test]
    fn nesting_past_the_limit_is_a_typed_error() {
        // the query block and its select item open one level each
        let at_limit = format!("SELECT {}", nest("(", "1", ")", MAX_NESTING - 2));
        parse_query(&at_limit).unwrap();
        let past = format!("SELECT {}", nest("(", "1", ")", MAX_NESTING - 1));
        let err = parse_query(&past).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::TooDeep(MAX_NESTING));
        assert!(err.to_string().starts_with("nesting deeper than 24 levels"), "{err}");
        parse_expr(&nest("NOT ", "TRUE", "", MAX_NESTING - 1)).unwrap();
        let err = parse_expr(&nest("NOT ", "TRUE", "", MAX_NESTING)).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::TooDeep(MAX_NESTING));
    }

    /// The margin behind [`MAX_NESTING`]: input nested far past it, in
    /// every shape that recurses, is refused on half the stack of a
    /// connection thread (2 MiB). Measured with the limit at 24, the
    /// deepest shape (nested function calls in a debug build, derived
    /// tables in a release build) needs ~740 KiB of stack in a debug
    /// build and ~130 KiB in a release build.
    #[test]
    fn the_nesting_limit_fits_half_a_connection_stack() {
        const DEEP: usize = 5_000;
        let inputs = [
            format!("SELECT {}", nest("1 + (", "1", ")", DEEP)),
            format!("SELECT {}", nest("- ", "1", "", DEEP)),
            format!("SELECT {}", nest("NOT ", "TRUE", "", DEEP)),
            format!("SELECT {}", nest("(SELECT ", "1", ")", DEEP)),
            format!("SELECT {}", nest("EXISTS (SELECT ", "1", ")", DEEP)),
            format!("SELECT * FROM {}", nest("(SELECT * FROM ", "t", ")", DEEP)),
            format!("SELECT * FROM {}", nest("(", "t", ")", DEEP)),
            format!("SELECT {}", nest("f(", "1", ")", DEEP)),
            format!("SELECT {}", nest("CAST(", "1", " AS INT)", DEEP)),
            format!("SELECT {}", nest("1 IN (", "1", ")", DEEP)),
            format!("SELECT {}", nest("CASE WHEN ", "1", " THEN 1 END", DEEP)),
        ];
        let probe = std::thread::Builder::new()
            .stack_size(1 << 20)
            .spawn(move || inputs.map(|sql| parse_query(&sql).map(drop).map_err(|e| e.kind)))
            .unwrap();
        for verdict in probe.join().expect("the probe thread returns") {
            assert_eq!(verdict, Err(ParseErrorKind::TooDeep(MAX_NESTING)));
        }
    }

    #[test]
    fn empty_over_clause() {
        let q = parse_query("SELECT SUM(z) OVER () FROM d").unwrap();
        let SelectItem::Expr { expr: Expr::Function(f), .. } = &q.items[0] else { panic!() };
        let over = f.over.as_ref().unwrap();
        assert!(over.partition_by.is_empty() && over.order_by.is_empty());
    }
}
