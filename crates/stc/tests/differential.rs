//! Differential tests of the compiler, over seeded random programs:
//!
//! * COM and Fith agree: randomly generated arithmetic/control programs
//!   produce identical results on the COM (three-address) and the Fith
//!   (stack) machine — the two backends cross-validate each other and
//!   both machines underneath;
//! * the ablated COM machine configurations agree with the default;
//! * compiling with the once-per-process prelude gives the image a single
//!   pass over the prelude-prefixed text gives (`with_stdlib: false` is
//!   that single pass), for both `inline_control_flow` values.

use com_core::{Machine, MachineConfig, ProgramImage};
use com_fith::FithMachine;
use com_isa::OpcodeTable;
use com_mem::{AtomId, Word};
use com_obj::ClassInfo;
use com_stc::stdlib::PRELUDE;
use com_stc::{compile_com, compile_fith, CompileOptions};

/// Random programs per property.
const CASES: usize = 24;

/// xorshift64*: deterministic, seedable, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }
}

/// A tiny expression AST we can render to COM Smalltalk source.
#[derive(Debug, Clone)]
enum E {
    N(i64),
    SelfRef,
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    Mod(Box<E>, Box<E>),
    Min(Box<E>, Box<E>),
    IfPos(Box<E>, Box<E>, Box<E>),
}

/// A random expression at most `depth` operators deep; a third of the
/// inner positions are leaves.
fn expr(rng: &mut Rng, depth: u32) -> E {
    if depth == 0 || rng.range(0, 2) == 0 {
        return match rng.range(0, 3) {
            0 => E::SelfRef,
            _ => E::N(rng.range(-9, 9)),
        };
    }
    let op = rng.range(0, 5);
    let mut sub = || Box::new(expr(rng, depth - 1));
    match op {
        0 => E::Add(sub(), sub()),
        1 => E::Sub(sub(), sub()),
        2 => E::Mul(sub(), sub()),
        3 => E::Mod(sub(), sub()),
        4 => E::Min(sub(), sub()),
        _ => E::IfPos(sub(), sub(), sub()),
    }
}

/// Renders to source. Modulo guards against zero divisors by adding a
/// constant offset inside `(… abs + 1)`.
fn render(e: &E) -> String {
    match e {
        E::N(n) if *n < 0 => format!("(0 - {})", -n),
        E::N(n) => format!("{n}"),
        E::SelfRef => "self".to_string(),
        E::Add(a, b) => format!("({} + {})", render(a), render(b)),
        E::Sub(a, b) => format!("({} - {})", render(a), render(b)),
        E::Mul(a, b) => format!("(({} \\\\ 997) * ({} \\\\ 997))", render(a), render(b)),
        E::Mod(a, b) => format!("({} \\\\ (({}) abs + 1))", render(a), render(b)),
        E::Min(a, b) => format!("({} min: {})", render(a), render(b)),
        E::IfPos(c, t, f) => format!(
            "(({}) > 0 ifTrue: [ {} ] ifFalse: [ {} ])",
            render(c),
            render(t),
            render(f)
        ),
    }
}

/// `CASES` random probe programs with a receiver in `-r..r` each.
fn random_probes(seed: u64, r: i64) -> Vec<(String, i64)> {
    let mut rng = Rng(seed);
    (0..CASES)
        .map(|_| {
            let e = expr(&mut rng, 3);
            let src = format!("class SmallInteger method probe ^{} end end", render(&e));
            (src, rng.range(-r, r - 1))
        })
        .collect()
}

/// COM and Fith agree on randomly generated expression programs.
#[test]
fn backends_agree_on_random_expressions() {
    for (src, recv) in random_probes(0x0bac_4e4d_5a9e_e001, 50) {
        let opts = CompileOptions::default();
        let com_image = compile_com(&src, opts).expect("COM compiles");
        let fith_image = compile_fith(&src, opts).expect("Fith compiles");

        let mut m = Machine::new(MachineConfig::default());
        m.load(&com_image).expect("loads");
        let com = m.send("probe", Word::Int(recv), &[], 5_000_000);

        let mut f = FithMachine::new(&fith_image);
        let fith = f.send(&fith_image, "probe", Word::Int(recv), &[], 5_000_000);

        match (com, fith) {
            (Ok(a), Ok(b)) => assert_eq!(a.result, b.result, "src: {src}"),
            // Both may trap; keep the comparison symmetric.
            (Err(_), Err(_)) => {}
            (a, b) => panic!("divergent outcomes: {a:?} vs {b:?} (src: {src})"),
        }
    }
}

/// The ablated COM configurations agree with the default on the same
/// kind of random programs (machine invariance under cache/ITLB
/// geometry).
#[test]
fn com_configs_agree_on_random_expressions() {
    for (src, recv) in random_probes(0xc0f1_65a9_2ee0_0002, 20) {
        let image = compile_com(&src, CompileOptions::default()).expect("compiles");
        let mut results = Vec::new();
        for cfg in [
            MachineConfig::default(),
            MachineConfig::default().without_itlb(),
            MachineConfig::default().without_context_cache(),
            MachineConfig::default().with_ctx_blocks(4),
        ] {
            let mut m = Machine::new(cfg);
            m.load(&image).expect("loads");
            results.push(
                m.send("probe", Word::Int(recv), &[], 5_000_000)
                    .map(|r| r.result),
            );
        }
        for w in results.windows(2) {
            match (&w[0], &w[1]) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "src: {src}"),
                (Err(_), Err(_)) => {}
                (a, b) => panic!("config divergence: {a:?} vs {b:?} (src: {src})"),
            }
        }
    }
}

/// Asserts `a` and `b` are the same image: classes by id with their
/// sorted dictionaries, atoms, sorted opcodes, and methods in order.
fn assert_same_image(a: &ProgramImage, b: &ProgramImage, what: &str) {
    assert_eq!(a.classes.ids(), b.classes.ids(), "{what}: class ids");
    let class = |c: &ClassInfo| {
        let mut dict: Vec<_> = c.dict.iter().map(|(s, m)| (s, *m)).collect();
        dict.sort_by_key(|(s, _)| *s);
        (c.name.clone(), c.superclass, c.n_ivars, dict)
    };
    for (id, ca) in a.classes.iter() {
        let cb = b.classes.get(id).expect("same ids");
        assert_eq!(class(ca), class(cb), "{what}: class {id}");
    }

    let atoms = |img: &ProgramImage| -> Vec<String> {
        (0..img.atoms.len() as u32)
            .map(|i| img.atoms.name(AtomId(i)).expect("dense ids").to_string())
            .collect()
    };
    assert_eq!(atoms(a), atoms(b), "{what}: atoms");

    let opcodes = |t: &OpcodeTable| {
        let mut v: Vec<_> = t.iter().map(|(op, name)| (op, name.to_string())).collect();
        v.sort();
        v
    };
    assert_eq!(opcodes(&a.opcodes), opcodes(&b.opcodes), "{what}: opcodes");

    assert_eq!(a.methods.len(), b.methods.len(), "{what}: method count");
    for (i, (ma, mb)) in a.methods.iter().zip(&b.methods).enumerate() {
        assert_eq!(
            (ma.class, ma.selector, &*ma.code),
            (mb.class, mb.selector, &*mb.code),
            "{what}: method {i}"
        );
    }
}

/// `compile_com` with the once-per-process prelude gives exactly the image
/// of compiling the prelude-prefixed text in one pass, for both
/// `inline_control_flow` values, over the shipped programs, the shipped
/// programs plus a probe method, and the random programs.
#[test]
fn memoised_prelude_images_equal_one_pass_compiles() {
    let mut sources: Vec<String> = Vec::new();
    for (i, w) in com_workloads::all().iter().enumerate() {
        sources.push(w.source.to_string());
        sources.push(format!(
            "{}\nclass SmallInteger method probe{i} ^self * {} + {} end end",
            w.source,
            i + 2,
            i * 7
        ));
    }
    sources.extend(
        random_probes(0x1de7_1777_0000_0003, 10)
            .into_iter()
            .map(|(src, _)| src),
    );

    for inline_control_flow in [true, false] {
        let opts = CompileOptions {
            inline_control_flow,
            with_stdlib: true,
        };
        let one_pass = CompileOptions {
            with_stdlib: false,
            ..opts
        };
        for src in &sources {
            let what = format!("inline_control_flow={inline_control_flow}: {src}");
            let memoised = compile_com(src, opts).expect(&what);
            let reference = compile_com(&format!("{PRELUDE}\n{src}"), one_pass).expect(&what);
            assert_same_image(&memoised, &reference, &what);
        }
    }
}
