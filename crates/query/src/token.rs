//! Tokenizer for the query dialect.

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword (uppercased).
    Keyword(Keyword),
    /// Identifier (original case preserved).
    Ident(String),
    /// Numeric literal.
    Number(f64),
    /// `(`.
    LParen,
    /// `)`.
    RParen,
    /// `,`.
    Comma,
    /// `.`.
    Dot,
    /// `*`.
    Star,
    /// `/`.
    Slash,
    /// `+`.
    Plus,
    /// `-`.
    Minus,
    /// `|` (absolute-value bar).
    Bar,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// `=`.
    Eq,
    /// `!=` or `<>`.
    Ne,
}

/// Reserved words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keyword {
    Select,
    From,
    Where,
    And,
    Or,
    Not,
    As,
    Once,
    Sample,
    Period,
    Min,
    Max,
    Sum,
    Avg,
    Count,
    Group,
    By,
}

impl Keyword {
    fn parse(word: &str) -> Option<Keyword> {
        Some(match word.to_ascii_uppercase().as_str() {
            "SELECT" => Keyword::Select,
            "FROM" => Keyword::From,
            "WHERE" => Keyword::Where,
            "AND" => Keyword::And,
            "OR" => Keyword::Or,
            "NOT" => Keyword::Not,
            "AS" => Keyword::As,
            "ONCE" => Keyword::Once,
            "SAMPLE" => Keyword::Sample,
            "PERIOD" => Keyword::Period,
            "MIN" => Keyword::Min,
            "MAX" => Keyword::Max,
            "SUM" => Keyword::Sum,
            "AVG" => Keyword::Avg,
            "COUNT" => Keyword::Count,
            "GROUP" => Keyword::Group,
            "BY" => Keyword::By,
            _ => return None,
        })
    }
}

/// A tokenizer error with byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    /// Byte offset of the offending character.
    pub at: usize,
    /// Description.
    pub message: String,
}

/// Tokenizes a query string.
pub fn tokenize(input: &str) -> Result<Vec<Token>, LexError> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let next = bytes.get(i + 1).copied().unwrap_or(0);
        // A symbol and its length in bytes, the longest match first.
        let symbol = match (c, next) {
            ('<', b'=') => Some((Token::Le, 2)),
            ('<', b'>') | ('!', b'=') => Some((Token::Ne, 2)),
            ('>', b'=') => Some((Token::Ge, 2)),
            ('<', _) => Some((Token::Lt, 1)),
            ('>', _) => Some((Token::Gt, 1)),
            ('=', _) => Some((Token::Eq, 1)),
            ('(', _) => Some((Token::LParen, 1)),
            (')', _) => Some((Token::RParen, 1)),
            (',', _) => Some((Token::Comma, 1)),
            ('.', d) if !d.is_ascii_digit() => Some((Token::Dot, 1)),
            ('*', _) => Some((Token::Star, 1)),
            ('/', _) => Some((Token::Slash, 1)),
            ('+', _) => Some((Token::Plus, 1)),
            ('-', _) => Some((Token::Minus, 1)),
            ('|', _) => Some((Token::Bar, 1)),
            _ => None,
        };
        if let Some((token, len)) = symbol {
            out.push(token);
            i += len;
            continue;
        }
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '!' => {
                return Err(LexError {
                    at: i,
                    message: "expected '=' after '!'".into(),
                })
            }
            c if c.is_ascii_digit() || c == '.' => {
                let start = i;
                while i < bytes.len() && ((bytes[i] as char).is_ascii_digit() || bytes[i] == b'.') {
                    i += 1;
                }
                // Optional exponent.
                if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                    let mut j = i + 1;
                    if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
                        j += 1;
                    }
                    if j < bytes.len() && bytes[j].is_ascii_digit() {
                        i = j;
                        while i < bytes.len() && bytes[i].is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                let text = &input[start..i];
                let value = text.parse::<f64>().map_err(|_| LexError {
                    at: start,
                    message: format!("invalid number {text:?}"),
                })?;
                out.push(Token::Number(value));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let word = &input[start..i];
                match Keyword::parse(word) {
                    Some(k) => out.push(Token::Keyword(k)),
                    None => out.push(Token::Ident(word.to_owned())),
                }
            }
            other => {
                return Err(LexError {
                    at: i,
                    message: format!("unexpected character {other:?}"),
                })
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q1_tokens() {
        let toks = tokenize(
            "SELECT MIN(distance(A.x, A.y, B.x, B.y)) FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > 10.0 ONCE",
        )
        .unwrap();
        assert_eq!(toks[0], Token::Keyword(Keyword::Select));
        assert_eq!(toks[1], Token::Keyword(Keyword::Min));
        assert!(toks.contains(&Token::Number(10.0)));
        assert_eq!(*toks.last().unwrap(), Token::Keyword(Keyword::Once));
    }

    #[test]
    fn operators() {
        let toks = tokenize("< <= > >= = != <>").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Lt,
                Token::Le,
                Token::Gt,
                Token::Ge,
                Token::Eq,
                Token::Ne,
                Token::Ne
            ]
        );
    }

    #[test]
    fn numbers() {
        let toks = tokenize("0.3 100 1e3 2.5E-2").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Number(0.3),
                Token::Number(100.0),
                Token::Number(1000.0),
                Token::Number(0.025)
            ]
        );
    }

    #[test]
    fn qualified_names_and_bars() {
        let toks = tokenize("|A.hum - B.hum|").unwrap();
        assert_eq!(toks[0], Token::Bar);
        assert_eq!(toks[1], Token::Ident("A".into()));
        assert_eq!(toks[2], Token::Dot);
        assert_eq!(*toks.last().unwrap(), Token::Bar);
    }

    #[test]
    fn keywords_case_insensitive() {
        let toks = tokenize("select From WHERE once").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Keyword(Keyword::Select),
                Token::Keyword(Keyword::From),
                Token::Keyword(Keyword::Where),
                Token::Keyword(Keyword::Once)
            ]
        );
    }

    #[test]
    fn bad_character() {
        assert!(tokenize("SELECT #").is_err());
        assert!(tokenize("a ! b").is_err());
    }

    #[test]
    fn every_symbol_and_literal() {
        use Token::*;
        let got = tokenize("(A.x<=.5e1,1.)*/+-|<><>=>=!=!=<a>b").unwrap();
        let want = [
            LParen,
            Ident("A".into()),
            Dot,
            Ident("x".into()),
            Le,
            Number(5.0),
            Comma,
            Number(1.0),
            RParen,
            Star,
            Slash,
            Plus,
            Minus,
            Bar,
            Ne,
            Ne,
            Eq,
            Ge,
            Ne,
            Ne,
            Lt,
            Ident("a".into()),
            Gt,
            Ident("b".into()),
        ];
        assert_eq!(got, want);
        assert_eq!(tokenize("a.").unwrap(), [Ident("a".into()), Dot]);
        assert_eq!(tokenize("where").unwrap(), [Keyword(super::Keyword::Where)]);
        assert_eq!(tokenize("1 ! 2").unwrap_err().at, 2);
        assert_eq!(tokenize("a;").unwrap_err().at, 1);
    }
}
