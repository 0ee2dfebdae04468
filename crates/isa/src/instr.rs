//! Instruction formats and their 36-bit encodings.

use crate::{IsaError, Opcode, Operand};

/// Bit layout of the 36-bit instruction payload.
const FMT_BIT: u64 = 1 << 35;
const RET_BIT: u64 = 1 << 34;
const OPCODE_SHIFT: u32 = 24;
const OPCODE_MASK: u64 = 0x3FF;
const NARGS_SHIFT: u32 = 32;
const NARGS_MASK: u64 = 0x3;

/// One COM instruction (§3.3).
///
/// "All instructions are 32 bits in length and contain zero or three
/// operands." We honour Figure 4's field widths (`O<12> A<8> B<8> C<8>`,
/// which with the instruction tag occupy a 36-bit word) and carry the
/// payload in the low 36 bits of a `u64`.
///
/// ```
/// use com_isa::{Instr, Opcode, Operand};
///
/// // c2 <- c1 * c2   (figure 9's "Compute the product")
/// let i = Instr::three(
///     Opcode::MUL,
///     Operand::Cur(2),
///     Operand::Cur(1),
///     Operand::Cur(2),
/// ).unwrap();
/// let encoded = i.encode();
/// assert_eq!(Instr::decode(encoded).unwrap(), i);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// Three-address instruction: `A <- B op C` for data operations, or the
    /// operand roles a defined method assigns (result pointer, receiver,
    /// argument — §4).
    Three {
        /// The abstract opcode / message selector.
        op: Opcode,
        /// Return bit: after this instruction completes, return control to
        /// the calling context (§3.5).
        ret: bool,
        /// Destination (or first argument) operand.
        a: Operand,
        /// Source (receiver) operand.
        b: Operand,
        /// Source (argument) operand — the only slot that may be constant.
        c: Operand,
    },
    /// Zero-address instruction: a bare selector; "zero, one or two locals
    /// in the next context are considered as operands depending on the high
    /// order bits of the instruction" (§3.5).
    Zero {
        /// The abstract opcode / message selector.
        op: Opcode,
        /// Return bit.
        ret: bool,
        /// Number of next-context locals treated as operands (0..=2).
        nargs: u8,
    },
}

impl Instr {
    /// Builds a three-address instruction, validating operand placement.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::MisplacedConstant`] if `a` or `b` is constant
    /// mode, [`IsaError::OpcodeOutOfRange`] or
    /// [`IsaError::OperandOutOfRange`] on field overflow.
    pub fn three(op: Opcode, a: Operand, b: Operand, c: Operand) -> Result<Instr, IsaError> {
        Self::three_ret(op, a, b, c, false)
    }

    /// [`Instr::three`] with the return bit set.
    ///
    /// # Errors
    ///
    /// As for [`Instr::three`].
    pub fn three_ret(
        op: Opcode,
        a: Operand,
        b: Operand,
        c: Operand,
        ret: bool,
    ) -> Result<Instr, IsaError> {
        if op.0 as u64 > OPCODE_MASK {
            return Err(IsaError::OpcodeOutOfRange(op));
        }
        if a.is_const() {
            return Err(IsaError::MisplacedConstant { position: 0 });
        }
        // Deviation from the paper's "last operand only" constant rule:
        // we model a dual-ported constant
        // generator, so either source operand (B or C) may be constant.
        // Only the destination A must name a context slot.
        a.validated()?;
        b.validated()?;
        c.validated()?;
        Ok(Instr::Three { op, ret, a, b, c })
    }

    /// Builds a zero-address instruction with `nargs` implicit next-context
    /// operands.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::TooManyImplicitOperands`] if `nargs > 2` or
    /// [`IsaError::OpcodeOutOfRange`].
    pub fn zero(op: Opcode, nargs: u8, ret: bool) -> Result<Instr, IsaError> {
        if op.0 as u64 > OPCODE_MASK {
            return Err(IsaError::OpcodeOutOfRange(op));
        }
        if nargs > 2 {
            return Err(IsaError::TooManyImplicitOperands(nargs));
        }
        Ok(Instr::Zero { op, ret, nargs })
    }

    /// The instruction's opcode.
    pub fn opcode(&self) -> Opcode {
        match self {
            Instr::Three { op, .. } | Instr::Zero { op, .. } => *op,
        }
    }

    /// Whether the return bit is set.
    pub fn returns(&self) -> bool {
        match self {
            Instr::Three { ret, .. } | Instr::Zero { ret, .. } => *ret,
        }
    }

    /// Encodes to the 36-bit payload of an instruction word.
    pub fn encode(&self) -> u64 {
        match *self {
            Instr::Three { op, ret, a, b, c } => {
                (if ret { RET_BIT } else { 0 })
                    | ((op.0 as u64) << OPCODE_SHIFT)
                    | ((a.encode() as u64) << 16)
                    | ((b.encode() as u64) << 8)
                    | (c.encode() as u64)
            }
            Instr::Zero { op, ret, nargs } => {
                // Zero format carries the selector in the low 10 bits so the
                // nargs field (bits 33..32) never overlaps it.
                FMT_BIT
                    | (if ret { RET_BIT } else { 0 })
                    | ((nargs as u64 & NARGS_MASK) << NARGS_SHIFT)
                    | (op.0 as u64)
            }
        }
    }

    /// Decodes a 36-bit payload.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::BadEncoding`] if bits above 35 are set or a
    /// zero-address payload carries operand bits, and
    /// [`IsaError::MisplacedConstant`] for a constant-mode A operand —
    /// decode admits exactly the instructions the [`Instr::three_ret`]
    /// constructor admits, so no decoded word can violate the
    /// destination-must-be-a-slot invariant downstream.
    pub fn decode(word: u64) -> Result<Instr, IsaError> {
        if word >> 36 != 0 {
            return Err(IsaError::BadEncoding(word));
        }
        let ret = word & RET_BIT != 0;
        let op = Opcode(((word >> OPCODE_SHIFT) & OPCODE_MASK) as u16);
        if word & FMT_BIT == 0 {
            let a = Operand::decode(((word >> 16) & 0xFF) as u8);
            if a.is_const() {
                return Err(IsaError::MisplacedConstant { position: 0 });
            }
            Ok(Instr::Three {
                op,
                ret,
                a,
                b: Operand::decode(((word >> 8) & 0xFF) as u8),
                c: Operand::decode((word & 0xFF) as u8),
            })
        } else {
            // Bits 31..10 must be clear in zero format.
            if word & 0xFFFF_FC00 != 0 {
                return Err(IsaError::BadEncoding(word));
            }
            let op = Opcode((word & OPCODE_MASK) as u16);
            let nargs = ((word >> NARGS_SHIFT) & NARGS_MASK) as u8;
            if nargs > 2 {
                return Err(IsaError::TooManyImplicitOperands(nargs));
            }
            Ok(Instr::Zero { op, ret, nargs })
        }
    }

    /// The source operands this instruction reads, in B, C order (used for
    /// ITLB keying and hazard checks). Zero-address instructions read their
    /// implicit next-context locals, reported as [`Operand::Next`].
    pub fn sources(&self) -> Vec<Operand> {
        match *self {
            Instr::Three { b, c, .. } => vec![b, c],
            Instr::Zero { nargs, .. } => (0..nargs)
                // Implicit operands are arg1, arg2 — operand offsets 1 and 2
                // (operand offset 0 is arg0; offsets are biased past the two
                // linkage words RCP/RIP of the §4 context layout).
                .map(|i| Operand::Next(1 + i))
                .collect(),
        }
    }

    /// The explicit operands of a three-address instruction in A, B, C
    /// order; `None` for zero-address instructions (their operands are
    /// implicit next-context locals — see [`Instr::sources`]).
    pub fn operands(&self) -> Option<[Operand; 3]> {
        match *self {
            Instr::Three { a, b, c, .. } => Some([a, b, c]),
            Instr::Zero { .. } => None,
        }
    }

    /// Whether this is a conditional jump (`fjmp`/`rjmp`) — a
    /// three-address control instruction whose C operand carries the
    /// branch displacement.
    pub fn is_jump(&self) -> bool {
        matches!(
            self,
            Instr::Three { op, .. } if *op == Opcode::FJMP || *op == Opcode::RJMP
        )
    }

    /// The destination operand this instruction writes, if any.
    pub fn destination(&self) -> Option<Operand> {
        match *self {
            Instr::Three { op, a, .. } => {
                // Jumps and at:put: do not write A.
                if op == Opcode::FJMP || op == Opcode::RJMP || op == Opcode::ATPUT {
                    None
                } else {
                    Some(a)
                }
            }
            Instr::Zero { .. } => None,
        }
    }
}

impl core::fmt::Display for Instr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Instr::Three { op, ret, a, b, c } => {
                write!(f, "{a} <- {b} {op} {c}")?;
                if *ret {
                    write!(f, " (ret)")?;
                }
                Ok(())
            }
            Instr::Zero { op, ret, nargs } => {
                write!(f, "{op}/{nargs}")?;
                if *ret {
                    write!(f, " (ret)")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_address_roundtrip() {
        let i = Instr::three(
            Opcode::SUB,
            Operand::Next(1),
            Operand::Cur(1),
            Operand::Const(1),
        )
        .unwrap();
        assert_eq!(Instr::decode(i.encode()).unwrap(), i);
    }

    #[test]
    fn zero_address_roundtrip() {
        for nargs in 0..=2 {
            for ret in [false, true] {
                let i = Instr::zero(Opcode(100), nargs, ret).unwrap();
                assert_eq!(Instr::decode(i.encode()).unwrap(), i);
            }
        }
    }

    #[test]
    fn constant_never_in_destination() {
        assert!(matches!(
            Instr::three(
                Opcode::ADD,
                Operand::Const(0),
                Operand::Cur(0),
                Operand::Cur(0)
            ),
            Err(IsaError::MisplacedConstant { position: 0 })
        ));
        // Sources may both be constants (dual-ported constant generator).
        assert!(Instr::three(
            Opcode::ADD,
            Operand::Cur(0),
            Operand::Const(0),
            Operand::Cur(0)
        )
        .is_ok());
        assert!(Instr::three(
            Opcode::ADD,
            Operand::Cur(0),
            Operand::Const(0),
            Operand::Const(1)
        )
        .is_ok());
        assert!(Instr::three(
            Opcode::ADD,
            Operand::Cur(0),
            Operand::Cur(0),
            Operand::Const(0)
        )
        .is_ok());
    }

    #[test]
    fn decode_rejects_constant_destinations_like_the_constructor() {
        // A valid instruction whose A field is re-encoded to constant
        // mode (high operand bit set) must not decode: decode admits
        // exactly what the constructors admit.
        let i = Instr::three(
            Opcode::ADD,
            Operand::Cur(3),
            Operand::Cur(1),
            Operand::Cur(2),
        )
        .unwrap();
        let word = i.encode() | (0x80 << 16);
        assert!(matches!(
            Instr::decode(word),
            Err(IsaError::MisplacedConstant { position: 0 })
        ));
    }

    #[test]
    fn rejects_wide_opcode_and_nargs() {
        assert!(Instr::zero(Opcode(0x400), 0, false).is_err());
        assert!(Instr::zero(Opcode(1), 3, false).is_err());
    }

    #[test]
    fn rejects_bad_encodings() {
        assert!(Instr::decode(1 << 36).is_err());
        // zero-format with junk between the nargs and opcode fields
        assert!(Instr::decode(FMT_BIT | (1 << 20)).is_err());
    }

    #[test]
    fn destination_excludes_jumps_and_stores() {
        let store = Instr::three(
            Opcode::ATPUT,
            Operand::Cur(1),
            Operand::Cur(2),
            Operand::Cur(3),
        )
        .unwrap();
        assert_eq!(store.destination(), None);
        let jmp = Instr::three(
            Opcode::FJMP,
            Operand::Cur(0),
            Operand::Cur(1),
            Operand::Const(2),
        )
        .unwrap();
        assert_eq!(jmp.destination(), None);
        let add = Instr::three(
            Opcode::ADD,
            Operand::Cur(0),
            Operand::Cur(1),
            Operand::Cur(2),
        )
        .unwrap();
        assert_eq!(add.destination(), Some(Operand::Cur(0)));
    }

    #[test]
    fn operand_introspection_reports_format_and_jumps() {
        let add = Instr::three(
            Opcode::ADD,
            Operand::Cur(0),
            Operand::Cur(1),
            Operand::Const(2),
        )
        .unwrap();
        assert_eq!(
            add.operands(),
            Some([Operand::Cur(0), Operand::Cur(1), Operand::Const(2)])
        );
        assert!(!add.is_jump());
        let jmp = Instr::three(
            Opcode::RJMP,
            Operand::Cur(0),
            Operand::Cur(1),
            Operand::Const(0),
        )
        .unwrap();
        assert!(jmp.is_jump());
        let z = Instr::zero(Opcode(70), 1, false).unwrap();
        assert_eq!(z.operands(), None);
        assert!(!z.is_jump());
    }

    #[test]
    fn sources_of_zero_address_are_next_locals() {
        let i = Instr::zero(Opcode(70), 2, false).unwrap();
        assert_eq!(i.sources(), vec![Operand::Next(1), Operand::Next(2)]);
    }

    #[test]
    fn payload_fits_36_bits() {
        let i = Instr::three_ret(
            Opcode(0x3FF),
            Operand::Cur(63),
            Operand::Next(63),
            Operand::Const(127),
            true,
        )
        .unwrap();
        assert!(i.encode() < (1 << 36));
        let z = Instr::zero(Opcode(0x3FF), 2, true).unwrap();
        assert!(z.encode() < (1 << 36));
    }

    #[test]
    fn display_matches_figure9_style() {
        let i = Instr::three(
            Opcode::MUL,
            Operand::Cur(2),
            Operand::Cur(1),
            Operand::Cur(2),
        )
        .unwrap();
        assert_eq!(i.to_string(), "c2 <- c1 * c2");
    }
}
