//! Parser for the query dialect: recursive descent over the clauses,
//! precedence climbing over expressions.

use crate::ast::{AggFunc, BinOp, CmpOp, Expr, FromItem, Query, SelectItem, Temporal};
use crate::token::{tokenize, Keyword, Token};

/// A parse error.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Description of what went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        message: message.into(),
    })
}

/// Parses a query string.
///
/// Grammar (informally):
///
/// ```text
/// query    := SELECT select (',' select)* FROM from (',' from)*
///             [WHERE or_expr] [GROUP BY or_expr (',' or_expr)*]
///             (ONCE | SAMPLE PERIOD number)
/// select   := [agg '('] or_expr [')'] [AS ident]
/// from     := ident [ident]
/// or_expr  := and_expr (OR and_expr)*
/// and_expr := not_expr (AND not_expr)*
/// not_expr := NOT not_expr | cmp
/// cmp      := sum [cmpop sum]
/// sum      := term (('+'|'-') term)*
/// term     := unary (('*'|'/') unary)*
/// unary    := '-' unary | primary
/// primary  := number | '|' or_expr '|' | '(' or_expr ')'
///           | 'abs' '(' or_expr ')'
///           | 'distance' '(' or_expr ',' ... ')'   -- 4 args
///           | ident '.' ident
/// ```
///
/// An expression nested deeper than [`MAX_EXPR_DEPTH`] is an error
/// (`expression nested deeper than …`), found before the parser recurses
/// that deep.
pub fn parse(input: &str) -> Result<Query, ParseError> {
    let tokens = tokenize(input).map_err(|e| ParseError {
        message: format!("{} (at byte {})", e.message, e.at),
    })?;
    let mut p = Parser {
        tokens,
        pos: 0,
        open: 0,
    };
    let q = p.query()?;
    if p.pos != p.tokens.len() {
        return err(format!("trailing input after query: {:?}", p.tokens[p.pos]));
    }
    Ok(q)
}

/// The deepest an expression may nest. Depth counts every operator,
/// function call and pair of parentheses or bars on the way from the
/// expression's root down to a leaf, the leaf included: `A.x` is 1,
/// `-(A.x)` is 3, and `p₁ AND … AND pₖ` over comparisons of two leaves is
/// k + 1 (chains nest to the left).
///
/// The parser and every later pass — name resolution, classification,
/// both evaluators, `Clone`, `PartialEq`, `Debug` and `Drop` — recurse
/// over an expression, so this bound is what keeps a query from
/// overflowing the stack of the thread that handles it: an overflow aborts
/// the process, and a serve tenant's SQL is compiled on the server.
///
/// Stack budget: half of 2 MiB, the stack a spawned thread gets by default
/// and the smallest any worker here runs on (join chunks, serve
/// deployments, test threads). At depth 128 the deepest pass needs about
/// 650 KiB in a debug build (the parser ~4.9 KiB per parenthesis level,
/// name resolution ~5 KiB per operator level) and about 155 KiB in
/// release; `the_depth_bound_fits_half_the_smallest_stack` runs all of
/// them at this depth on a 1 MiB thread.
pub const MAX_EXPR_DEPTH: usize = 128;

/// A parsed expression and its depth (see [`MAX_EXPR_DEPTH`]).
type Parsed = Result<(Expr, usize), ParseError>;

fn too_deep<T>() -> Result<T, ParseError> {
    err(format!("expression nested deeper than {MAX_EXPR_DEPTH}"))
}

/// `expr`, one level above sub-expressions at most `below` deep — refused
/// when that is deeper than the bound.
fn node(expr: Expr, below: usize) -> Parsed {
    if below >= MAX_EXPR_DEPTH {
        too_deep()
    } else {
        Ok((expr, below + 1))
    }
}

/// How tightly an operator binds, loosest first: `OR`, `AND`, prefix
/// `NOT`, comparisons, `+ -`, `* /`, prefix minus.
type Level = u8;
const OR: Level = 1;
const AND: Level = 2;
const NOT: Level = 3;
const CMP: Level = 4;
const SUM: Level = 5;
const TERM: Level = 6;
const NEG: Level = 7;

/// What opens an enclosed sub-expression.
#[derive(Clone, Copy)]
enum Opening {
    Paren,
    Bar,
    Abs,
    Distance,
}

/// An infix operator.
enum Infix {
    Or,
    And,
    Cmp(CmpOp),
    Bin(BinOp),
}

impl Infix {
    /// The expression `lhs op rhs`.
    fn join(self, lhs: Expr, rhs: Expr) -> Expr {
        let (lhs, rhs) = (Box::new(lhs), Box::new(rhs));
        match self {
            Infix::Or => Expr::Or(lhs, rhs),
            Infix::And => Expr::And(lhs, rhs),
            Infix::Bin(op) => Expr::Bin { op, lhs, rhs },
            Infix::Cmp(op) => Expr::Cmp { op, lhs, rhs },
        }
    }
}

/// `t` as an infix operator, with its level, if it is one.
fn infix(t: &Token) -> Option<(Level, Infix)> {
    Some(match t {
        Token::Keyword(Keyword::Or) => (OR, Infix::Or),
        Token::Keyword(Keyword::And) => (AND, Infix::And),
        Token::Lt => (CMP, Infix::Cmp(CmpOp::Lt)),
        Token::Le => (CMP, Infix::Cmp(CmpOp::Le)),
        Token::Gt => (CMP, Infix::Cmp(CmpOp::Gt)),
        Token::Ge => (CMP, Infix::Cmp(CmpOp::Ge)),
        Token::Eq => (CMP, Infix::Cmp(CmpOp::Eq)),
        Token::Ne => (CMP, Infix::Cmp(CmpOp::Ne)),
        Token::Plus => (SUM, Infix::Bin(BinOp::Add)),
        Token::Minus => (SUM, Infix::Bin(BinOp::Sub)),
        Token::Star => (TERM, Infix::Bin(BinOp::Mul)),
        Token::Slash => (TERM, Infix::Bin(BinOp::Div)),
        _ => return None,
    })
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// The sub-expressions the parser is inside of (parentheses, bars,
    /// function arguments, unary minus, `NOT`): its recursion depth, each a
    /// level of the finished expression's depth.
    open: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Token) -> Result<(), ParseError> {
        match self.next() {
            Some(got) if got == t => Ok(()),
            Some(got) => err(format!("expected {t:?}, found {got:?}")),
            None => err(format!("expected {t:?}, found end of input")),
        }
    }

    fn keyword(&mut self, k: Keyword) -> Result<(), ParseError> {
        self.expect(Token::Keyword(k))
    }

    fn query(&mut self) -> Result<Query, ParseError> {
        self.keyword(Keyword::Select)?;
        let mut select = vec![self.select_item()?];
        while self.eat(&Token::Comma) {
            select.push(self.select_item()?);
        }
        self.keyword(Keyword::From)?;
        let mut from = vec![self.from_item()?];
        while self.eat(&Token::Comma) {
            from.push(self.from_item()?);
        }
        let predicate = if self.eat(&Token::Keyword(Keyword::Where)) {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat(&Token::Keyword(Keyword::Group)) {
            self.keyword(Keyword::By)?;
            group_by.push(self.expr()?);
            while self.eat(&Token::Comma) {
                group_by.push(self.expr()?);
            }
        }
        let temporal = match self.next() {
            Some(Token::Keyword(Keyword::Once)) => Temporal::Once,
            Some(Token::Keyword(Keyword::Sample)) => {
                self.keyword(Keyword::Period)?;
                match self.next() {
                    Some(Token::Number(x)) if x > 0.0 => Temporal::SamplePeriod(x),
                    other => return err(format!("expected positive period, found {other:?}")),
                }
            }
            other => return err(format!("expected ONCE or SAMPLE PERIOD, found {other:?}")),
        };
        Ok(Query {
            select,
            from,
            predicate,
            group_by,
            temporal,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem, ParseError> {
        let agg = match self.peek() {
            Some(Token::Keyword(Keyword::Min)) => Some(AggFunc::Min),
            Some(Token::Keyword(Keyword::Max)) => Some(AggFunc::Max),
            Some(Token::Keyword(Keyword::Sum)) => Some(AggFunc::Sum),
            Some(Token::Keyword(Keyword::Avg)) => Some(AggFunc::Avg),
            Some(Token::Keyword(Keyword::Count)) => Some(AggFunc::Count),
            _ => None,
        };
        if agg.is_some() {
            self.pos += 1;
            self.expect(Token::LParen)?;
        }
        let expr = self.expr()?;
        if agg.is_some() {
            self.expect(Token::RParen)?;
        }
        let alias = if self.eat(&Token::Keyword(Keyword::As)) {
            match self.next() {
                Some(Token::Ident(name)) => Some(name),
                other => return err(format!("expected alias, found {other:?}")),
            }
        } else {
            None
        };
        Ok(SelectItem { agg, expr, alias })
    }

    #[allow(clippy::wrong_self_convention)] // parses a FROM item, not a conversion
    fn from_item(&mut self) -> Result<FromItem, ParseError> {
        let relation = match self.next() {
            Some(Token::Ident(name)) => name,
            other => return err(format!("expected relation name, found {other:?}")),
        };
        let alias = match self.peek() {
            Some(Token::Ident(a)) => {
                let a = a.clone();
                self.pos += 1;
                a
            }
            _ => relation.clone(),
        };
        Ok(FromItem { relation, alias })
    }

    /// A whole expression (a SELECT item, the WHERE clause, a GROUP BY key).
    fn expr(&mut self) -> Result<Expr, ParseError> {
        Ok(self.binding(OR)?.0)
    }

    /// An expression whose operators all bind at least as tightly as `min`
    /// (a [`Level`]), by precedence climbing: the grammar's rules from
    /// `or_expr` to `unary` in one loop, so a nested sub-expression costs
    /// the parser three stack frames, not one per rule. A prefix `NOT` and a
    /// comparison may only be followed by the looser `AND` and `OR`, as the
    /// grammar has it.
    fn binding(&mut self, min: Level) -> Parsed {
        let (mut e, mut depth, mut below) = if min <= NOT && self.eat(&Token::Keyword(Keyword::Not))
        {
            let (e, d) = self.nested(NOT)?;
            let (e, d) = node(Expr::Not(Box::new(e)), d)?;
            (e, d, NOT)
        } else if self.eat(&Token::Minus) {
            let (e, d) = self.nested(NEG)?;
            let (e, d) = node(Expr::Neg(Box::new(e)), d)?;
            (e, d, Level::MAX)
        } else {
            let (e, d) = self.primary()?;
            (e, d, Level::MAX)
        };
        while let Some((level, op)) = self.peek().and_then(infix) {
            if level < min || level >= below {
                break;
            }
            self.pos += 1;
            let (rhs, d) = self.binding(level + 1)?;
            // What may follow: operators no tighter than this one — and
            // after a comparison, none of its own level either.
            below = if matches!(op, Infix::Cmp(_)) {
                CMP
            } else {
                level + 1
            };
            (e, depth) = node(op.join(e, rhs), depth.max(d))?;
        }
        Ok((e, depth))
    }

    /// [`Parser::binding`] on a sub-expression the parser enters (see
    /// [`Parser::open`]), refused before the recursion once the enclosing
    /// levels alone reach the bound.
    fn nested(&mut self, min: Level) -> Parsed {
        if self.open + 1 >= MAX_EXPR_DEPTH {
            return too_deep();
        }
        self.open += 1;
        let out = self.binding(min);
        self.open -= 1;
        out
    }

    /// A primary expression: a leaf, or a sub-expression in parentheses,
    /// bars or a function call. The enclosed forms are the parser's
    /// recursion, so leaves and their error messages are parsed by
    /// [`Parser::leaf`], outside the frames a deep expression stacks up.
    fn primary(&mut self) -> Parsed {
        let Some(opening) = self.opening() else {
            return self.leaf();
        };
        let (first, mut depth) = self.nested(OR)?;
        let expr = match opening {
            // Parentheses build no node but count as a level.
            Opening::Paren => first,
            Opening::Bar | Opening::Abs => Expr::Abs(Box::new(first)),
            Opening::Distance => {
                let mut arg = |p: &mut Self| {
                    p.expect(Token::Comma)?;
                    let (arg, d) = p.nested(OR)?;
                    depth = depth.max(d);
                    Ok(arg)
                };
                let args = [first, arg(self)?, arg(self)?, arg(self)?];
                Expr::Distance {
                    args: Box::new(args),
                }
            }
        };
        self.expect(match opening {
            Opening::Bar => Token::Bar,
            _ => Token::RParen,
        })?;
        node(expr, depth)
    }

    /// Consumes what opens an enclosed sub-expression — `(`, `|`, `abs(`,
    /// `distance(` — if the input is at one.
    fn opening(&mut self) -> Option<Opening> {
        let call = |name: &str| {
            if name.eq_ignore_ascii_case("abs") {
                Some(Opening::Abs)
            } else if name.eq_ignore_ascii_case("distance") {
                Some(Opening::Distance)
            } else {
                None
            }
        };
        let (opening, tokens) = match (self.peek()?, self.tokens.get(self.pos + 1)) {
            (Token::LParen, _) => (Opening::Paren, 1),
            (Token::Bar, _) => (Opening::Bar, 1),
            (Token::Ident(name), Some(Token::LParen)) => (call(name)?, 2),
            _ => return None,
        };
        self.pos += tokens;
        Some(opening)
    }

    /// A number or an attribute reference `qualifier.attr`.
    fn leaf(&mut self) -> Parsed {
        let leaf = match self.next() {
            Some(Token::Number(n)) => Expr::Number(n),
            Some(Token::Ident(qualifier)) => {
                self.expect(Token::Dot)?;
                match self.next() {
                    Some(Token::Ident(attr)) => Expr::Attr { qualifier, attr },
                    other => return err(format!("expected attribute after '.', found {other:?}")),
                }
            }
            other => return err(format!("expected expression, found {other:?}")),
        };
        Ok((leaf, 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Q1 parses verbatim.
    #[test]
    fn paper_q1() {
        let q = parse(
            "SELECT MIN(distance(A.x, A.y, B.x, B.y)) \
             FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > 10.0 \
             ONCE",
        )
        .unwrap();
        assert_eq!(q.select.len(), 1);
        assert_eq!(q.select[0].agg, Some(AggFunc::Min));
        assert_eq!(q.from.len(), 2);
        assert_eq!(q.from[0].alias, "A");
        assert_eq!(q.from[1].relation, "Sensors");
        assert_eq!(q.temporal, Temporal::Once);
        assert!(q.predicate.is_some());
    }

    /// The paper's Q2 parses verbatim.
    #[test]
    fn paper_q2() {
        let q = parse(
            "SELECT |A.hum - B.hum|, |A.pres - B.pres| \
             FROM Sensors A, Sensors B \
             WHERE |A.temp - B.temp| < 0.3 \
             AND distance(A.x, A.y, B.x, B.y) > 100 \
             ONCE",
        )
        .unwrap();
        assert_eq!(q.select.len(), 2);
        assert!(matches!(q.select[0].expr, Expr::Abs(_)));
        let conjs = q.predicate.as_ref().unwrap().conjuncts().len();
        assert_eq!(conjs, 2);
    }

    #[test]
    fn sample_period() {
        let q = parse("SELECT A.t FROM S A SAMPLE PERIOD 30").unwrap();
        assert_eq!(q.temporal, Temporal::SamplePeriod(30.0));
        assert!(q.predicate.is_none());
        assert!(parse("SELECT A.t FROM S A SAMPLE PERIOD 0").is_err());
    }

    #[test]
    fn precedence() {
        let q = parse("SELECT A.x FROM S A WHERE A.a + A.b * 2 < 10 AND NOT A.c > 1 ONCE").unwrap();
        let p = q.predicate.unwrap();
        let cs = p.conjuncts();
        assert_eq!(cs.len(), 2);
        match cs[0] {
            Expr::Cmp { lhs, .. } => match lhs.as_ref() {
                Expr::Bin {
                    op: BinOp::Add,
                    rhs,
                    ..
                } => {
                    assert!(matches!(rhs.as_ref(), Expr::Bin { op: BinOp::Mul, .. }));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(cs[1], Expr::Not(_)));
    }

    /// Operators bind as the grammar says: each expression parses to the
    /// tree of its fully parenthesized form (parentheses build no node),
    /// and what the grammar cannot derive is an error.
    #[test]
    fn operators_bind_as_the_grammar_says() {
        let where_ = |e: &str| parse(&format!("SELECT A.x FROM S A WHERE {e} ONCE"));
        for (implicit, explicit) in [
            ("A.x OR NOT A.y AND A.z", "A.x OR ((NOT A.y) AND A.z)"),
            ("NOT A.x < A.y AND A.z", "(NOT (A.x < A.y)) AND A.z"),
            ("NOT NOT A.x OR A.y", "(NOT (NOT A.x)) OR A.y"),
            ("-A.x * A.y + A.z / -A.w", "((-A.x) * A.y) + (A.z / (-A.w))"),
            ("A.x - A.y - A.z", "(A.x - A.y) - A.z"),
            ("A.x / A.y * A.z", "(A.x / A.y) * A.z"),
            ("- -A.x", "-(-A.x)"),
            (
                "A.x + A.y < A.z * 2 OR A.w = 1 AND A.v",
                "((A.x + A.y) < (A.z * 2)) OR ((A.w = 1) AND A.v)",
            ),
        ] {
            assert_eq!(where_(implicit), where_(explicit), "{implicit}");
        }
        for bad in [
            "A.x < A.y < A.z",
            "A.x AND A.y < 1 = 2",
            "NOT A.x < A.y < 1",
            "-NOT A.x",
            "A.x + NOT A.y",
            "A.x < NOT A.y",
        ] {
            assert!(where_(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn aliases_and_as() {
        let q = parse("SELECT A.x AS pos_x FROM Sensors A ONCE").unwrap();
        assert_eq!(q.select[0].alias.as_deref(), Some("pos_x"));
    }

    #[test]
    fn default_alias_is_relation_name() {
        let q = parse("SELECT Sensors.x FROM Sensors ONCE").unwrap();
        assert_eq!(q.from[0].alias, "Sensors");
    }

    #[test]
    fn three_way_join() {
        let q = parse(
            "SELECT A.t, B.t, C.t FROM R A, S B, T C \
             WHERE A.t < B.t AND B.t < C.t ONCE",
        )
        .unwrap();
        assert_eq!(q.from.len(), 3);
    }

    #[test]
    fn errors() {
        assert!(parse("").is_err());
        assert!(parse("SELECT FROM S ONCE").is_err());
        assert!(parse("SELECT A.x FROM S A").is_err()); // missing temporal
        assert!(parse("SELECT A.x FROM S A ONCE garbage").is_err());
        assert!(parse("SELECT A.x FROM S A WHERE A.x < ONCE").is_err());
        assert!(parse("SELECT distance(A.x, A.y) FROM S A ONCE").is_err()); // arity
        assert!(parse("SELECT |A.x FROM S A ONCE").is_err()); // unclosed bar
    }

    #[test]
    fn nested_abs_and_negation() {
        let q = parse("SELECT abs(A.x - -3) FROM S A ONCE").unwrap();
        assert!(matches!(q.select[0].expr, Expr::Abs(_)));
    }
}
