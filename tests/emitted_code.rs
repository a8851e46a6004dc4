//! The code `Compiler::lower` prints is the tile the runtime runs: a
//! small interpreter runs the emitted loops for every processor's grid
//! coordinates and must visit exactly `Tiling::for_each_point(t)`, in
//! order, once per `doseq` repetition, each repetition ending in a
//! barrier.

use alp::linalg::walk_box;
use alp::partition::ParaSearchConfig;
use alp::plan::skewed_candidates;
use alp::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;

/// One line structure of the emitted code.
#[derive(Debug)]
enum Node {
    For(String, String, String, Vec<Node>),
    Statement,
    Barrier,
}

/// What running the code does, in order.
#[derive(Debug, PartialEq)]
enum Event {
    Point(Vec<i64>),
    Barrier,
}

/// An open loop's head and the nodes read into its body so far.
type Open = (Option<(String, String, String)>, Vec<Node>);

/// Parse the emitted code: `for NAME in LO ..= HI {`, `}`, `barrier;`,
/// statements, and `//` comments.
fn parse_code(code: &str) -> Vec<Node> {
    let mut stack: Vec<Open> = vec![(None, Vec::new())];
    for line in code.lines().map(str::trim) {
        if line.is_empty() || line.starts_with("//") {
            continue;
        }
        if let Some(head) = line.strip_prefix("for ") {
            let (name, range) = head.split_once(" in ").expect("for NAME in");
            let range = range.strip_suffix(" {").expect("a loop opens a block");
            let (lo, hi) = range.split_once(" ..= ").expect("an inclusive range");
            stack.push((Some((name.into(), lo.into(), hi.into())), Vec::new()));
        } else if line == "}" {
            let (head, body) = stack.pop().expect("balanced braces");
            let (name, lo, hi) = head.expect("a brace closes a loop");
            let parent = &mut stack.last_mut().expect("an enclosing block").1;
            parent.push(Node::For(name, lo, hi, body));
        } else if line == "barrier;" {
            stack.last_mut().unwrap().1.push(Node::Barrier);
        } else {
            assert!(line.ends_with(';'), "a statement: {line}");
            stack.last_mut().unwrap().1.push(Node::Statement);
        }
    }
    assert_eq!(stack.len(), 1, "unclosed loop in\n{code}");
    stack.pop().unwrap().1
}

fn tokens(e: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut word = String::new();
    for c in e.chars() {
        if c.is_alphanumeric() || c == '_' {
            word.push(c);
            continue;
        }
        if !word.is_empty() {
            out.push(std::mem::take(&mut word));
        }
        if !c.is_whitespace() {
            out.push(c.to_string());
        }
    }
    if !word.is_empty() {
        out.push(word);
    }
    out
}

/// A bound expression: integers, names, `+ - *`, parentheses,
/// `max`/`min` of a list, `ceil`/`floor` of `(…)/m`.
struct Eval<'a> {
    toks: Vec<String>,
    at: usize,
    env: &'a HashMap<String, i128>,
}

impl Eval<'_> {
    fn next(&mut self) -> String {
        self.at += 1;
        self.toks[self.at - 1].clone()
    }

    fn peek(&self) -> Option<&str> {
        self.toks.get(self.at).map(String::as_str)
    }

    fn expect(&mut self, t: &str) {
        assert_eq!(self.next(), t, "in {:?}", self.toks);
    }

    fn expr(&mut self) -> i128 {
        let neg = self.peek() == Some("-");
        if neg {
            self.at += 1;
        }
        let first = self.term();
        let mut v = if neg { -first } else { first };
        while let Some(op @ ("+" | "-")) = self.peek() {
            let plus = op == "+";
            self.at += 1;
            let t = self.term();
            v += if plus { t } else { -t };
        }
        v
    }

    fn term(&mut self) -> i128 {
        let mut v = self.atom();
        while self.peek() == Some("*") {
            self.at += 1;
            v *= self.atom();
        }
        v
    }

    fn atom(&mut self) -> i128 {
        let t = self.next();
        match t.as_str() {
            "(" => {
                let v = self.expr();
                self.expect(")");
                v
            }
            "max" | "min" => {
                self.expect("(");
                let mut vs = vec![self.expr()];
                while self.peek() == Some(",") {
                    self.at += 1;
                    vs.push(self.expr());
                }
                self.expect(")");
                let it = vs.into_iter();
                if t == "max" { it.max() } else { it.min() }.unwrap()
            }
            "ceil" | "floor" => {
                self.expect("(");
                let a = self.expr();
                self.expect("/");
                let m: i128 = self.next().parse().expect("an integer divisor");
                self.expect(")");
                assert!(m > 1, "a divisor of 1 prints no rounding");
                if t == "floor" {
                    a.div_euclid(m)
                } else {
                    -(-a).div_euclid(m)
                }
            }
            _ => t.parse().unwrap_or_else(|_| self.env[&t]),
        }
    }
}

fn eval(e: &str, env: &HashMap<String, i128>) -> i128 {
    let mut ev = Eval {
        toks: tokens(e),
        at: 0,
        env,
    };
    let v = ev.expr();
    assert_eq!(ev.at, ev.toks.len(), "trailing tokens in {e}");
    v
}

fn run(nodes: &[Node], env: &mut HashMap<String, i128>, names: &[String], out: &mut Vec<Event>) {
    let mut stated = false;
    for node in nodes {
        match node {
            Node::For(name, lo, hi, body) => {
                let (lo, hi) = (eval(lo, env), eval(hi, env));
                for x in lo..=hi {
                    env.insert(name.clone(), x);
                    run(body, env, names, out);
                }
                env.remove(name);
            }
            // A body of several statements runs one iteration.
            Node::Statement if !stated => {
                stated = true;
                let point = names.iter().map(|n| env[n] as i64).collect();
                out.push(Event::Point(point));
            }
            Node::Statement => {}
            Node::Barrier => out.push(Event::Barrier),
        }
    }
}

/// Run `code` for every tile of the tiling and compare with the tiling's
/// own walk, repeated once per `doseq` repetition.
fn assert_scans_its_tiles(
    nest: &LoopNest,
    transform: Option<&Transform>,
    grid: &[i128],
    code: &str,
) {
    let tiling = Tiling::new(nest, transform, grid).unwrap();
    let nodes = parse_code(code);
    let names = nest.index_names();
    let reps = nest.seq_repetitions();
    let (n, last) = (grid.len(), grid.iter().map(|g| g - 1).collect::<Vec<_>>());
    let mut t = 0;
    walk_box(&vec![0; n], &last, &mut vec![0; n], |coord| {
        let mut env: HashMap<String, i128> = (coord.iter().enumerate())
            .map(|(k, &c)| (format!("p{k}"), c))
            .collect();
        let mut ran = Vec::new();
        run(&nodes, &mut env, &names, &mut ran);
        let mut want = Vec::new();
        for _ in 0..reps {
            tiling.for_each_point(t, |i| want.push(Event::Point(i.to_vec())));
            if !nest.seq_loops.is_empty() {
                want.push(Event::Barrier);
            }
        }
        assert!(ran == want, "tile {t} at {coord:?} of {grid:?}:\n{code}");
        t += 1;
        true
    });
    assert_eq!(t, tiling.len());
}

fn assert_lowers_to_its_tiles(plan: PartitionPlan) {
    let lowered = Compiler::lower(plan).unwrap();
    let plan = &lowered.plan;
    let transform = plan.transform.as_ref();
    assert_scans_its_tiles(&lowered.nest, transform, &plan.proc_grid, &lowered.code);
}

#[test]
fn the_skewed_golden_lowers_to_loops_over_its_own_tiles() {
    let golden = include_str!("golden/example2.v4.plan.json");
    let plan = PartitionPlan::from_json_str(golden).unwrap();
    assert!(plan.transform.is_some());
    assert_lowers_to_its_tiles(plan);
}

#[test]
fn rectangular_paper_examples_lower_to_loops_over_their_own_tiles() {
    let examples = [
        // Example 2.
        (
            "doall (i, 101, 200) { doall (j, 1, 100) {
               A[i,j] = B[i+j,i-j-1] + B[i+j+4,i-j+3]; } }",
            100,
        ),
        // Example 3.
        (
            "doall (i, 1, 64) { doall (j, 1, 64) { A[i,j] = B[i,j] + B[i+1,j+3]; } }",
            16,
        ),
        // Example 8.
        (
            "doall (i, 1, 64) { doall (j, 1, 64) { doall (k, 1, 64) {
               A[i,j,k] = B[i-1,j,k+1] + B[i,j+1,k] + B[i+1,j-2,k-3]; } } }",
            64,
        ),
        // Example 10.
        (
            "doall (i, 1, 64) { doall (j, 1, 64) {
               A[i,j] = B[i+j,i-j] + B[i+j+4,i-j+2]
                      + C[i,2*i,i+2*j-1] + C[i+1,2*i+2,i+2*j+1] + C[i,2*i,i+2*j+1]; } }",
            16,
        ),
    ];
    for (src, p) in examples {
        let plan = Compiler::new(p)
            .unchecked()
            .plan(&parse(src).unwrap())
            .unwrap();
        assert!(plan.transform.is_none());
        assert_lowers_to_its_tiles(plan);
    }
}

/// A random nest of depth 1–3 over small bounds, optionally inside a
/// `doseq`, reading `B` at two constant offsets of the written point.
fn arb_nest() -> impl Strategy<Value = LoopNest> {
    (1usize..=3)
        .prop_flat_map(|depth| {
            let trip = if depth == 1 { 1i128..=24 } else { 1..=9 };
            (
                proptest::collection::vec((-3i128..=3, trip), depth),
                proptest::collection::vec((-2i128..=2, -2i128..=2), depth),
                // A negative count means no `doseq`.
                -1i128..=2,
            )
        })
        .prop_map(|(bounds, offsets, seq)| {
            let names = ["i", "j", "k"];
            let index = |off: &dyn Fn(usize) -> i128| {
                let subs: Vec<String> = (0..bounds.len())
                    .map(|d| format!("{}+{}", names[d], off(d)))
                    .collect();
                subs.join(", ")
            };
            let mut src = String::new();
            if seq >= 0 {
                src.push_str(&format!("doseq (t, 0, {seq}) {{ "));
            }
            for (d, (lo, trip)) in bounds.iter().enumerate() {
                src.push_str(&format!(
                    "doall ({}, {lo}, {}) {{ ",
                    names[d],
                    lo + trip - 1
                ));
            }
            src.push_str(&format!(
                "A[{}] = B[{}] + B[{}];",
                index(&|_| 0),
                index(&|d| offsets[d].0),
                index(&|d| offsets[d].1)
            ));
            src.push_str(&" }".repeat(bounds.len() + usize::from(seq >= 0)));
            parse(&src.replace("+-", "-")).unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Rectangular plans, and the first skewed candidates, at
    /// P ∈ {1, 2, 4, 8, 16}.  A 3-D nest searches bases of entries in
    /// −1..=1, which keeps its candidates to seconds in a debug build.
    #[test]
    fn random_plans_scan_their_own_tiles(nest in arb_nest()) {
        let max_entry = if nest.depth() < 3 { 2 } else { 1 };
        let config = ParaSearchConfig { max_entry, threads: 2 };
        for p in [1i128, 2, 4, 8, 16] {
            match Compiler::new(p).unchecked().plan(&nest) {
                Ok(plan) => assert_lowers_to_its_tiles(plan),
                Err(AlpError::Infeasible(_)) => {}
                Err(e) => panic!("{e}"),
            }
            for c in skewed_candidates(&nest, p, &config).unwrap().iter().take(3) {
                let code = emit_code(&nest, Some(&c.transform), &c.grid).unwrap();
                assert_scans_its_tiles(&nest, Some(&c.transform), &c.grid, &code);
            }
        }
    }
}
