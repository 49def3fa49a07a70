//! A small text syntax for programs, used by litmus tests, examples and the
//! documentation.
//!
//! ```text
//! vars d f;                       // shared variables, default-initialised 0
//! thread t1 { d := 5; f :=R 1; }  // :=  relaxed write, :=R release write
//! thread t2 {
//!     do { r0 <-A f; } while (r0 == 0);  // r <-A x : acquire read into reg
//!     r1 <- d;                          // r <- E  : relaxed reads
//! }
//! ```
//!
//! Grammar summary:
//!
//! * `vars x y=1 z;` — declarations with optional initial values.
//! * statements: `skip;`, `x := E;`, `x :=R E;`, `x.swap(E);`, `r0 <- E;`,
//!   `r0 <-A x;` (sugar for `r0 <- acq(x)`), `if (E) { .. } else { .. }`,
//!   `while (E) { .. }`, `do { .. } while (E);`, and `N: stmt` labels.
//! * expressions: `||`, `&&`, comparisons, `+ - *`, `!`, literals,
//!   registers `rN`, shared variables, `acq(x)` for acquire reads,
//!   parentheses. `true`/`false` are sugar for `1`/`0`.
//! * `//` line comments.

use crate::ast::{BinOp, Com, Exp, Prog, RegId, Val, VarId};

/// A parse error with a human-readable message and source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub msg: String,
    /// 1-based source line.
    pub line: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Num(Val),
    Sym(&'static str),
}

struct Lexer {
    toks: Vec<(Tok, usize)>,
    pos: usize,
}

const SYMBOLS: &[&str] = &[
    ":=R", ":=", "<-A", "<-", "==", "!=", "<=", ">=", "&&", "||", "{", "}", "(", ")", ";", ":",
    ".", ",", "+", "-", "*", "<", ">", "!", "=",
];

fn lex(src: &str) -> Result<Vec<(Tok, usize)>, ParseError> {
    let mut toks = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0;
    let mut line = 1;
    'outer: while i < bytes.len() {
        let c = bytes[i] as char;
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c == '/' && bytes.get(i + 1) == Some(&b'/') {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        for sym in SYMBOLS {
            if src[i..].starts_with(sym) {
                toks.push((Tok::Sym(sym), line));
                i += sym.len();
                continue 'outer;
            }
        }
        if c.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                i += 1;
            }
            let n: Val = src[start..i].parse().map_err(|_| ParseError {
                msg: format!("number too large: {}", &src[start..i]),
                line,
            })?;
            toks.push((Tok::Num(n), line));
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                i += 1;
            }
            toks.push((Tok::Ident(src[start..i].to_string()), line));
            continue;
        }
        return Err(ParseError {
            msg: format!("unexpected character {c:?}"),
            line,
        });
    }
    Ok(toks)
}

/// Nesting cap for the recursive descent, counted in statements,
/// parenthesised expressions, `!` operators and binary-operator links
/// (each deepens the syntax tree by one). Without it one deeply nested
/// request (`((((…))))`, `if`s inside `if`s, a long `!` or `+` chain)
/// would overflow the stack of the thread that parses it, or of the
/// evaluator, stepper, hasher or pretty-printer that later recurse over
/// the tree, and abort a long-lived service. The JSON reader's
/// 128-level cap is the model.
const MAX_DEPTH: usize = 128;

struct Parser {
    lx: Lexer,
    vars: Vec<(String, Val)>,
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.lx.toks.get(self.lx.pos).map(|(t, _)| t)
    }

    fn line(&self) -> usize {
        self.lx
            .toks
            .get(self.lx.pos.min(self.lx.toks.len().saturating_sub(1)))
            .map_or(0, |(_, l)| *l)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.lx.toks.get(self.lx.pos).map(|(t, _)| t.clone());
        self.lx.pos += 1;
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            msg: msg.into(),
            line: self.line(),
        })
    }

    /// Descends one nesting level; past [`MAX_DEPTH`] the program is
    /// rejected with a positioned error instead of recursing further.
    fn nest(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return self.err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        Ok(())
    }

    /// Runs `parse` one nesting level deeper.
    fn nested<T>(
        &mut self,
        parse: fn(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        let depth = self.depth;
        self.nest()?;
        let out = parse(self);
        self.depth = depth;
        out
    }

    fn expect_sym(&mut self, sym: &'static str) -> Result<(), ParseError> {
        match self.bump() {
            Some(Tok::Sym(s)) if s == sym => Ok(()),
            other => self.err(format!("expected `{sym}`, found {other:?}")),
        }
    }

    fn eat_sym(&mut self, sym: &'static str) -> bool {
        if self.peek() == Some(&Tok::Sym(sym)) {
            self.lx.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            other => self.err(format!("expected identifier, found {other:?}")),
        }
    }

    fn lookup_var(&mut self, name: &str) -> Result<VarId, ParseError> {
        match self.vars.iter().position(|(n, _)| n == name) {
            Some(i) => Ok(VarId(i as u8)),
            None => self.err(format!("undeclared variable `{name}`")),
        }
    }

    /// Register names are `r` followed by digits; they are thread-local and
    /// need no declaration.
    fn as_reg(name: &str) -> Option<RegId> {
        let digits = name.strip_prefix('r')?;
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        digits.parse::<u8>().ok().map(RegId)
    }

    fn parse_program(&mut self) -> Result<Prog, ParseError> {
        let mut threads = Vec::new();
        loop {
            match self.peek() {
                None => break,
                Some(Tok::Ident(kw)) if kw == "vars" => {
                    self.bump();
                    self.parse_var_decls()?;
                }
                Some(Tok::Ident(kw)) if kw == "thread" => {
                    self.bump();
                    let _name = self.expect_ident()?;
                    self.expect_sym("{")?;
                    let body = self.parse_block_body()?;
                    threads.push(body);
                }
                other => return self.err(format!("expected `vars` or `thread`, found {other:?}")),
            }
        }
        if threads.is_empty() {
            return self.err("program has no threads");
        }
        Ok(Prog::new(std::mem::take(&mut self.vars), threads))
    }

    fn parse_var_decls(&mut self) -> Result<(), ParseError> {
        loop {
            match self.bump() {
                Some(Tok::Ident(name)) => {
                    if Self::as_reg(&name).is_some() {
                        return self.err(format!(
                            "`{name}` looks like a register; shared variables may not be named rN"
                        ));
                    }
                    let init = if self.eat_sym("=") {
                        match self.bump() {
                            Some(Tok::Num(n)) => n,
                            other => {
                                return self.err(format!("expected initial value, found {other:?}"))
                            }
                        }
                    } else {
                        0
                    };
                    if self.vars.iter().any(|(n, _)| *n == name) {
                        return self.err(format!("duplicate variable `{name}`"));
                    }
                    self.vars.push((name, init));
                    // optional comma between declarations
                    self.eat_sym(",");
                }
                Some(Tok::Sym(";")) => return Ok(()),
                other => return self.err(format!("expected variable name, found {other:?}")),
            }
        }
    }

    /// Parses statements until the closing `}` (consumed). A block is a
    /// left-nested sequence, so each statement after the first is one
    /// level deeper.
    fn parse_block_body(&mut self) -> Result<Com, ParseError> {
        let depth = self.depth;
        let mut stmts = Vec::new();
        while !self.eat_sym("}") {
            if !stmts.is_empty() {
                self.nest()?;
            }
            stmts.push(self.parse_stmt()?);
        }
        self.depth = depth;
        Ok(Com::block(stmts))
    }

    fn parse_block(&mut self) -> Result<Com, ParseError> {
        self.expect_sym("{")?;
        self.parse_block_body()
    }

    fn parse_stmt(&mut self) -> Result<Com, ParseError> {
        self.nested(Self::parse_stmt_inner)
    }

    fn parse_stmt_inner(&mut self) -> Result<Com, ParseError> {
        // Optional `N:` label.
        if let Some(Tok::Num(n)) = self.peek() {
            let n = *n;
            let save = self.lx.pos;
            self.bump();
            if self.eat_sym(":") {
                let inner = self.parse_stmt()?;
                return Ok(Com::labeled(n, inner));
            }
            self.lx.pos = save;
        }
        match self.peek().cloned() {
            Some(Tok::Ident(kw)) if kw == "skip" => {
                self.bump();
                self.expect_sym(";")?;
                Ok(Com::Skip)
            }
            Some(Tok::Ident(kw)) if kw == "if" => {
                self.bump();
                self.expect_sym("(")?;
                let cond = self.parse_exp()?;
                self.expect_sym(")")?;
                let then_ = self.parse_block()?;
                let else_ = if matches!(self.peek(), Some(Tok::Ident(k)) if k == "else") {
                    self.bump();
                    self.parse_block()?
                } else {
                    Com::Skip
                };
                Ok(Com::if_(cond, then_, else_))
            }
            Some(Tok::Ident(kw)) if kw == "while" => {
                self.bump();
                self.expect_sym("(")?;
                let cond = self.parse_exp()?;
                self.expect_sym(")")?;
                let body = self.parse_block()?;
                Ok(Com::while_(cond, body))
            }
            Some(Tok::Ident(kw)) if kw == "do" => {
                self.bump();
                let body = self.parse_block()?;
                match self.bump() {
                    Some(Tok::Ident(k)) if k == "while" => {}
                    other => return self.err(format!("expected `while`, found {other:?}")),
                }
                self.expect_sym("(")?;
                let cond = self.parse_exp()?;
                self.expect_sym(")")?;
                self.expect_sym(";")?;
                // do C while (B)  ≡  C ; while (B) C
                Ok(Com::seq(body.clone(), Com::while_(cond, body)))
            }
            Some(Tok::Ident(name)) => {
                self.bump();
                if let Some(reg) = Self::as_reg(&name) {
                    // r <- E   or   r <-A x
                    if self.eat_sym("<-A") {
                        let var_name = self.expect_ident()?;
                        let var = self.lookup_var(&var_name)?;
                        self.expect_sym(";")?;
                        Ok(Com::AssignReg {
                            reg,
                            rhs: Exp::VarA(var),
                        })
                    } else if self.eat_sym("<-") {
                        // Two-token lookahead: `r <- x.swap(E);` is an
                        // atomic exchange into the register.
                        let save = self.lx.pos;
                        if let Some(Tok::Ident(name)) = self.peek().cloned() {
                            self.bump();
                            if self.eat_sym(".") {
                                let var = self.lookup_var(&name)?;
                                let m = self.expect_ident()?;
                                if m != "swap" {
                                    return self
                                        .err(format!("unknown method `{m}` (expected `swap`)"));
                                }
                                self.expect_sym("(")?;
                                let new = self.parse_exp()?;
                                self.expect_sym(")")?;
                                self.expect_sym(";")?;
                                if !new.is_closed() {
                                    return self.err("swap argument may not read shared memory");
                                }
                                return Ok(Com::Swap {
                                    var,
                                    new,
                                    out: Some(reg),
                                });
                            }
                            self.lx.pos = save;
                        }
                        let rhs = self.parse_exp()?;
                        self.expect_sym(";")?;
                        Ok(Com::AssignReg { reg, rhs })
                    } else {
                        self.err("expected `<-` or `<-A` after register")
                    }
                } else {
                    let var = self.lookup_var(&name)?;
                    if self.eat_sym(".") {
                        // x.swap(E);
                        let m = self.expect_ident()?;
                        if m != "swap" {
                            return self.err(format!("unknown method `{m}` (expected `swap`)"));
                        }
                        self.expect_sym("(")?;
                        let new = self.parse_exp()?;
                        self.expect_sym(")")?;
                        self.expect_sym(";")?;
                        if !new.is_closed() {
                            return self.err(
                                "swap argument may not read shared memory (paper: x.swap(n))",
                            );
                        }
                        Ok(Com::Swap {
                            var,
                            new,
                            out: None,
                        })
                    } else if self.eat_sym(":=R") {
                        let rhs = self.parse_exp()?;
                        self.expect_sym(";")?;
                        Ok(Com::Assign {
                            var,
                            rhs,
                            release: true,
                        })
                    } else if self.eat_sym(":=") {
                        let rhs = self.parse_exp()?;
                        self.expect_sym(";")?;
                        Ok(Com::Assign {
                            var,
                            rhs,
                            release: false,
                        })
                    } else {
                        self.err("expected `:=`, `:=R` or `.swap(..)` after variable")
                    }
                }
            }
            other => self.err(format!("expected statement, found {other:?}")),
        }
    }

    fn parse_exp(&mut self) -> Result<Exp, ParseError> {
        self.nested(Self::parse_or)
    }

    fn parse_or(&mut self) -> Result<Exp, ParseError> {
        self.parse_chain(&[("||", BinOp::Or)], Self::parse_and)
    }

    fn parse_and(&mut self) -> Result<Exp, ParseError> {
        self.parse_chain(&[("&&", BinOp::And)], Self::parse_cmp)
    }

    fn parse_cmp(&mut self) -> Result<Exp, ParseError> {
        let lhs = self.parse_add()?;
        let op = match self.peek() {
            Some(Tok::Sym("==")) => BinOp::Eq,
            Some(Tok::Sym("!=")) => BinOp::Ne,
            Some(Tok::Sym("<=")) => BinOp::Le,
            Some(Tok::Sym(">=")) => BinOp::Ge,
            Some(Tok::Sym("<")) => BinOp::Lt,
            Some(Tok::Sym(">")) => BinOp::Gt,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.parse_add()?;
        Ok(Exp::bin(lhs, op, rhs))
    }

    fn parse_add(&mut self) -> Result<Exp, ParseError> {
        self.parse_chain(&[("+", BinOp::Add), ("-", BinOp::Sub)], Self::parse_mul)
    }

    fn parse_mul(&mut self) -> Result<Exp, ParseError> {
        self.parse_chain(&[("*", BinOp::Mul)], Self::parse_unary)
    }

    /// A left-associative chain `operand (op operand)*`; each link
    /// deepens the tree by one, so it counts as a nesting level.
    fn parse_chain(
        &mut self,
        ops: &[(&'static str, BinOp)],
        operand: fn(&mut Self) -> Result<Exp, ParseError>,
    ) -> Result<Exp, ParseError> {
        let depth = self.depth;
        let mut lhs = operand(self)?;
        while let Some(&(_, op)) = ops
            .iter()
            .find(|(sym, _)| self.peek() == Some(&Tok::Sym(sym)))
        {
            self.bump();
            self.nest()?;
            let rhs = operand(self)?;
            lhs = Exp::bin(lhs, op, rhs);
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Exp, ParseError> {
        if self.eat_sym("!") {
            return Ok(Exp::not(self.nested(Self::parse_unary)?));
        }
        self.parse_atom()
    }

    fn parse_atom(&mut self) -> Result<Exp, ParseError> {
        match self.bump() {
            Some(Tok::Num(n)) => Ok(Exp::Val(n)),
            Some(Tok::Sym("(")) => {
                let e = self.parse_exp()?;
                self.expect_sym(")")?;
                Ok(e)
            }
            Some(Tok::Ident(name)) if name == "true" => Ok(Exp::Val(1)),
            Some(Tok::Ident(name)) if name == "false" => Ok(Exp::Val(0)),
            Some(Tok::Ident(name)) if name == "acq" => {
                self.expect_sym("(")?;
                let var_name = self.expect_ident()?;
                let var = self.lookup_var(&var_name)?;
                self.expect_sym(")")?;
                Ok(Exp::VarA(var))
            }
            Some(Tok::Ident(name)) => {
                if let Some(reg) = Self::as_reg(&name) {
                    Ok(Exp::Reg(reg))
                } else {
                    Ok(Exp::Var(self.lookup_var(&name)?))
                }
            }
            other => self.err(format!("expected expression, found {other:?}")),
        }
    }
}

/// Parses a program in the DSL described in the module docs.
///
/// ```
/// use c11_lang::parse_program;
/// let prog = parse_program(
///     "vars x y=1;
///      thread t1 { x := 2; r0 <-A y; }",
/// ).unwrap();
/// assert_eq!(prog.num_vars(), 2);
/// assert_eq!(prog.inits, vec![0, 1]);
/// ```
pub fn parse_program(src: &str) -> Result<Prog, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser {
        lx: Lexer { toks, pos: 0 },
        vars: Vec::new(),
        depth: 0,
    };
    p.parse_program()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ThreadId;

    #[test]
    fn parses_message_passing() {
        let p = parse_program(
            "vars d f;
             thread t1 { d := 5; f :=R 1; }
             thread t2 { do { r0 <-A f; } while (r0 == 0); r1 <- d; }",
        )
        .unwrap();
        assert_eq!(p.num_vars(), 2);
        assert_eq!(p.num_threads(), 2);
        assert_eq!(p.var("d"), Some(VarId(0)));
        assert_eq!(p.var("f"), Some(VarId(1)));
        // Thread 1: d := 5 ; f :=R 1
        match p.thread(ThreadId(1)) {
            Com::Seq(a, b) => {
                assert!(matches!(**a, Com::Assign { release: false, .. }));
                assert!(matches!(**b, Com::Assign { release: true, .. }));
            }
            other => panic!("unexpected shape: {other:?}"),
        }
    }

    #[test]
    fn parses_initial_values() {
        let p = parse_program("vars x=3 y, z=7; thread t { x := 1; }").unwrap();
        assert_eq!(p.inits, vec![3, 0, 7]);
    }

    #[test]
    fn parses_swap_and_labels() {
        let p = parse_program(
            "vars turn flag1;
             thread t1 {
               2: flag1 := true;
               3: turn.swap(2);
             }",
        )
        .unwrap();
        let c = p.thread(ThreadId(1));
        assert_eq!(c.pc(), Some(2));
        match c {
            Com::Seq(a, b) => {
                assert_eq!(a.pc(), Some(2));
                assert_eq!(b.pc(), Some(3));
                assert!(matches!(**b, Com::Labeled(3, ref inner)
                    if matches!(**inner, Com::Swap { .. })));
            }
            other => panic!("unexpected shape: {other:?}"),
        }
    }

    #[test]
    fn swap_rejects_shared_read_argument() {
        let err = parse_program("vars x y; thread t { x.swap(y); }").unwrap_err();
        assert!(err.msg.contains("swap argument"));
    }

    #[test]
    fn acquire_read_forms() {
        let p = parse_program(
            "vars f;
             thread t { r0 <-A f; r1 <- acq(f) + 1; }",
        )
        .unwrap();
        match p.thread(ThreadId(1)) {
            Com::Seq(a, b) => {
                assert!(matches!(
                    **a,
                    Com::AssignReg {
                        rhs: Exp::VarA(_),
                        ..
                    }
                ));
                assert!(matches!(**b, Com::AssignReg { .. }));
            }
            other => panic!("unexpected shape: {other:?}"),
        }
    }

    #[test]
    fn undeclared_variable_is_an_error() {
        let err = parse_program("vars x; thread t { y := 1; }").unwrap_err();
        assert!(err.msg.contains("undeclared"));
    }

    #[test]
    fn duplicate_variable_is_an_error() {
        let err = parse_program("vars x x; thread t { x := 1; }").unwrap_err();
        assert!(err.msg.contains("duplicate"));
    }

    #[test]
    fn reserved_register_names() {
        let err = parse_program("vars r1; thread t { r1 := 1; }").unwrap_err();
        assert!(err.msg.contains("register"));
    }

    #[test]
    fn if_else_and_comments() {
        let p = parse_program(
            "vars x y; // declarations
             thread t {
               if (x == 1) { y := 1; } else { y := 2; } // branch
             }",
        )
        .unwrap();
        assert!(matches!(p.thread(ThreadId(1)), Com::If { .. }));
    }

    #[test]
    fn while_and_expressions() {
        let p = parse_program(
            "vars x y;
             thread t {
               while (!(x == 1) && y <= 3 || x > 2) { skip; }
             }",
        )
        .unwrap();
        assert!(matches!(p.thread(ThreadId(1)), Com::While { .. }));
    }

    #[test]
    fn error_reports_line() {
        let err = parse_program("vars x;\nthread t {\n  x ::= 1;\n}").unwrap_err();
        assert_eq!(err.line, 3);
    }

    #[test]
    fn empty_program_is_an_error() {
        assert!(parse_program("vars x;").is_err());
        assert!(parse_program("").is_err());
    }

    #[test]
    fn precedence() {
        // 1 + 2 * 3 == 7 parses as ((1 + (2*3)) == 7).
        let p = parse_program("vars x; thread t { r0 <- 1 + 2 * 3 == 7; }").unwrap();
        match p.thread(ThreadId(1)) {
            Com::AssignReg { rhs, .. } => {
                assert_eq!(crate::eval::eval_closed(rhs), Some(1));
            }
            other => panic!("unexpected shape: {other:?}"),
        }
    }

    #[test]
    fn exchange_into_register() {
        let p = parse_program("vars l; thread t { r0 <- l.swap(1); }").unwrap();
        match p.thread(ThreadId(1)) {
            Com::Swap { out, .. } => assert_eq!(*out, Some(crate::ast::RegId(0))),
            other => panic!("unexpected shape: {other:?}"),
        }
        // Rollback path: `r0 <- l + 1;` still parses as a register read.
        let p = parse_program("vars l; thread t { r0 <- l + 1; }").unwrap();
        assert!(matches!(p.thread(ThreadId(1)), Com::AssignReg { .. }));
    }

    /// The parser returns errors — never panics — on arbitrary input.
    /// Every way of deepening the syntax tree counts toward the cap:
    /// within it a program parses, far past it is a positioned error
    /// (not a stack overflow).
    #[test]
    fn nesting_is_capped() {
        let prog = |body: String| format!("vars x;\nthread t {{ {body} }}");
        let shapes: [fn(usize) -> String; 6] = [
            |n| format!("r0 <- {}x{};", "(".repeat(n), ")".repeat(n)),
            |n| format!("{}skip;{}", "if (x) { ".repeat(n), " }".repeat(n)),
            |n| format!("r0 <- {}x;", "!".repeat(n)),
            |n| format!("r0 <- x{};", " + 1".repeat(n)),
            |n| "r0 <- x; ".repeat(n),
            |n| format!("{}skip;", "1: ".repeat(n)),
        ];
        for shape in shapes {
            assert!(parse_program(&prog(shape(MAX_DEPTH / 2 - 2))).is_ok());
            let err = parse_program(&prog(shape(50_000))).unwrap_err();
            assert!(err.msg.contains("nesting deeper than"), "{err}");
            assert_eq!(err.line, 2);
        }
    }

    #[test]
    fn parser_never_panics_on_garbage() {
        let samples = [
            "thread",
            "vars ; thread t { }",
            "thread t { x := ; }",
            "vars x; thread t { x.swap; }",
            "vars x; thread t { r0 <- x.swip(1); }",
            "vars x; thread t { if (x { skip; } }",
            "vars x; thread t { while () {} }",
            "vars x; thread t { 12345678901234567890: skip; }",
            "ยูนิโค้ด",
            "vars x; thread t { r0 <-A 5; }",
            "}{)(",
            "vars x; thread t { do { skip; } while; }",
        ];
        for s in samples {
            let _ = parse_program(s); // must not panic
        }
        // Pseudo-random byte soup.
        let mut seed = 0x12345678u64;
        for _ in 0..500 {
            let mut src = String::new();
            for _ in 0..40 {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let b = (seed >> 33) as u8;
                src.push((b % 94 + 32) as char);
            }
            let _ = parse_program(&src);
        }
    }
}
