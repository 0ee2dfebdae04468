//! Seeded mutation suite: flip bits in valid images' code words, by the
//! thousand, and require that **every** mutant is either rejected by the
//! static verifier or executes to a typed result under a fuel budget.
//! Zero interpreter panics, across the whole space the mutator reaches —
//! the verifier's soundness contract, falsified empirically.

use com_core::{Machine, MachineConfig};
use com_isa::Instr;
use com_stc::{compile_com, CompileOptions};
use com_verify::verify_words;
use com_vm::Word;

/// xorshift64*: deterministic, seedable, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const PROGRAM: &str = r#"
    class SmallInteger
      method mutTarget | a b |
        a := self + 3.
        b := a * 2.
        a < b ifTrue: [ b := b - self ].
        1 to: 5 do: [ :i | a := a + i ].
        ^a rem: 97
      end
    end
"#;

const MUTANTS: usize = 3000;
const FUEL: u64 = 20_000;

#[test]
fn thousands_of_bitflipped_images_never_panic_the_interpreter() {
    let image = compile_com(PROGRAM, CompileOptions::default()).unwrap();
    assert!(com_verify::verify_image(&image).is_ok());
    let mut rng = Rng(0x5eed_c0de_0b5e_55ed);
    let mut rejected = 0usize;
    let mut executed = 0usize;
    let mut trapped = 0usize;

    for _ in 0..MUTANTS {
        // Pick a method (bias towards the entry so mutants actually run),
        // encode its body, and flip 1–3 bits in one instruction word.
        let mi = if rng.below(2) == 0 {
            image
                .methods
                .iter()
                .position(|m| m.code.name.contains("mutTarget"))
                .unwrap()
        } else {
            rng.below(image.methods.len() as u64) as usize
        };
        let method = &image.methods[mi];
        if method.code.instrs.is_empty() {
            continue;
        }
        let mut words: Vec<u64> = method.code.instrs.iter().map(Instr::encode).collect();
        let wi = rng.below(words.len() as u64) as usize;
        for _ in 0..=rng.below(3) {
            // Mostly the 36 architectural bits; occasionally junk above
            // them, which must be rejected as undecodable (V007).
            let bit = if rng.below(16) == 0 {
                36 + rng.below(28)
            } else {
                rng.below(36)
            };
            words[wi] ^= 1u64 << bit;
        }

        let verdict = verify_words(
            &method.code.name,
            method.code.n_args,
            &words,
            &method.code.consts,
            &image.opcodes,
        );
        match verdict {
            Err(_) => rejected += 1,
            Ok(()) => {
                // The verifier admitted the mutant: it must run — to a
                // result or a *typed* trap — without panicking.
                let mut mutant = image.clone();
                mutant.methods[mi].code.make_mut().instrs = words
                    .iter()
                    .map(|w| Instr::decode(*w).expect("verified words decode"))
                    .collect();
                let mut machine = Machine::new(MachineConfig::default());
                if machine.load(&mutant).is_err() {
                    // A typed load refusal is an acceptable outcome too.
                    trapped += 1;
                    continue;
                }
                match machine.send("mutTarget", Word::Int(7), &[], FUEL) {
                    Ok(_) => executed += 1,
                    Err(_) => trapped += 1,
                }
            }
        }
    }

    // The suite must actually exercise both sides of the contract.
    assert!(rejected > 100, "only {rejected} mutants rejected");
    assert!(
        executed + trapped > 100,
        "only {} mutants admitted (executed {executed}, trapped {trapped})",
        executed + trapped
    );
    println!(
        "mutation: {MUTANTS} mutants — {rejected} rejected, \
         {executed} ran to a result, {trapped} typed-trapped, 0 panics"
    );
}
