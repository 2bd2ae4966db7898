//! The mobile-code format: instructions, programs and signed images.

use bytes::Bytes;

use snipe_crypto::sha256::sha256;
use snipe_crypto::sign::{KeyPair, PublicKey, Signature};
use snipe_util::codec::{Encoder, WireDecode, WireEncode};
use snipe_util::error::{SnipeError, SnipeResult};
use snipe_util::rng::Xoshiro256;
use snipe_util::wire_codec;

/// One VM instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Instr {
    /// Push an immediate.
    PushI(i64),
    /// Discard the top of stack.
    Pop,
    /// Duplicate the top of stack.
    Dup,
    /// Swap the top two values.
    Swap,
    /// Pop b, a; push a+b.
    Add,
    /// Pop b, a; push a−b.
    Sub,
    /// Pop b, a; push a·b.
    Mul,
    /// Pop b, a; push a/b (traps on b = 0).
    Div,
    /// Pop b, a; push a mod b (traps on b = 0).
    Mod,
    /// Negate the top of stack.
    Neg,
    /// Pop b, a; push (a == b) as 0/1.
    Eq,
    /// Pop b, a; push (a < b) as 0/1.
    Lt,
    /// Pop b, a; push (a > b) as 0/1.
    Gt,
    /// Logical not of the top (0 → 1, nonzero → 0).
    Not,
    /// Push local slot `n`.
    Load(u16),
    /// Pop into local slot `n`.
    Store(u16),
    /// Unconditional jump to instruction index.
    Jmp(u32),
    /// Pop; jump when zero.
    Jz(u32),
    /// Call a function at instruction index (pushes return address).
    Call(u32),
    /// Return to caller (traps on empty call stack).
    Ret,
    /// Stop successfully.
    Halt,
    /// Capability-gated host call; see [`crate::vm`] syscall numbers.
    Syscall(u8),
}

wire_codec!(enum Instr {
    1 => PushI(value),
    2 => Pop,
    3 => Dup,
    4 => Swap,
    5 => Add,
    6 => Sub,
    7 => Mul,
    8 => Div,
    9 => Mod,
    10 => Neg,
    11 => Eq,
    12 => Lt,
    13 => Gt,
    14 => Not,
    15 => Load(slot),
    16 => Store(slot),
    17 => Jmp(target),
    18 => Jz(target),
    19 => Call(target),
    20 => Ret,
    21 => Halt,
    22 => Syscall(number),
});

/// A program: instruction sequence plus static metadata.
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    /// The code.
    pub code: Vec<Instr>,
    /// Number of local slots used.
    pub locals: u16,
    /// Capability bits the code needs (see `vm::CAP_*`).
    pub required_caps: u32,
}

wire_codec!(struct Program { locals, required_caps, code });

impl Program {
    /// Serialize for hashing / shipping.
    pub fn to_bytes(&self) -> Bytes {
        self.encode_to_bytes()
    }

    /// Deserialize, requiring the whole input to be one program.
    pub fn from_bytes(b: Bytes) -> SnipeResult<Program> {
        Program::decode_from_bytes(b)
    }

    /// Static verification: every jump/call target and local index is
    /// in range. Hostile images fail here before execution.
    pub fn verify_static(&self) -> SnipeResult<()> {
        let n = self.code.len() as u32;
        for (i, instr) in self.code.iter().enumerate() {
            match instr {
                Instr::Jmp(t) | Instr::Jz(t) | Instr::Call(t) if *t >= n => {
                    return Err(SnipeError::Invalid(format!(
                        "instruction {i}: jump target {t} out of range ({n})"
                    )));
                }
                Instr::Load(s) | Instr::Store(s) if *s >= self.locals => {
                    return Err(SnipeError::Invalid(format!(
                        "instruction {i}: local {s} out of range ({})",
                        self.locals
                    )));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// A signed mobile-code image: "the metadata can contain signed
/// descriptions of mobile code, allowing playgrounds to verify the
/// code's authenticity and integrity and to identify the resources and
/// access rights needed for that code to operate" (§3.1).
#[derive(Clone, Debug, PartialEq)]
pub struct CodeImage {
    /// Human-readable name.
    pub name: String,
    /// The serialized program.
    pub program: Bytes,
    /// SHA-256 of `program` (integrity).
    pub hash: [u8; 32],
    /// Signature over `name ‖ hash` by the code signer (authenticity).
    pub signature: Signature,
}

impl CodeImage {
    fn signed_bytes(name: &str, hash: &[u8; 32]) -> Bytes {
        let mut e = Encoder::new();
        e.put_str(name);
        e.put_raw(hash);
        e.finish()
    }

    /// Build and sign an image.
    pub fn sign(
        rng: &mut Xoshiro256,
        signer: &KeyPair,
        name: impl Into<String>,
        program: &Program,
    ) -> CodeImage {
        let name = name.into();
        let bytes = program.to_bytes();
        let hash = sha256(&bytes);
        let signature = signer.sign(rng, &Self::signed_bytes(&name, &hash));
        CodeImage { name, program: bytes, hash, signature }
    }

    /// Verify integrity (hash) and authenticity (signature) and decode.
    pub fn verify(&self, signer: &PublicKey) -> SnipeResult<Program> {
        if sha256(&self.program) != self.hash {
            return Err(SnipeError::AuthenticationFailed(format!(
                "code image {:?}: hash mismatch",
                self.name
            )));
        }
        if !signer.verify(&Self::signed_bytes(&self.name, &self.hash), &self.signature) {
            return Err(SnipeError::AuthenticationFailed(format!(
                "code image {:?}: bad signature",
                self.name
            )));
        }
        let p = Program::from_bytes(self.program.clone())?;
        p.verify_static()?;
        Ok(p)
    }
}

wire_codec!(struct CodeImage { name, program, hash, signature });

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Program {
        Program {
            code: vec![Instr::PushI(2), Instr::PushI(3), Instr::Add, Instr::Halt],
            locals: 0,
            required_caps: 0,
        }
    }

    #[test]
    fn instr_round_trip() {
        let all = vec![
            Instr::PushI(-7),
            Instr::Pop,
            Instr::Dup,
            Instr::Swap,
            Instr::Add,
            Instr::Sub,
            Instr::Mul,
            Instr::Div,
            Instr::Mod,
            Instr::Neg,
            Instr::Eq,
            Instr::Lt,
            Instr::Gt,
            Instr::Not,
            Instr::Load(3),
            Instr::Store(4),
            Instr::Jmp(9),
            Instr::Jz(10),
            Instr::Call(11),
            Instr::Ret,
            Instr::Halt,
            Instr::Syscall(2),
        ];
        for i in all {
            assert_eq!(Instr::decode_from_bytes(i.encode_to_bytes()).unwrap(), i);
        }
    }

    #[test]
    fn program_round_trip() {
        let p = sample();
        let back = Program::from_bytes(p.to_bytes()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn static_verification_catches_bad_targets() {
        let mut p = sample();
        p.code.push(Instr::Jmp(999));
        assert!(p.verify_static().is_err());
        let mut p2 = sample();
        p2.code.push(Instr::Load(0)); // locals = 0
        assert!(p2.verify_static().is_err());
        assert!(sample().verify_static().is_ok());
    }

    #[test]
    fn signed_image_verifies_and_detects_tamper() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let signer = KeyPair::generate_default(&mut rng);
        let img = CodeImage::sign(&mut rng, &signer, "job", &sample());
        assert!(img.verify(&signer.public).is_ok());

        // Tampered program body.
        let mut bad = img.clone();
        let mut body = bad.program.to_vec();
        body[0] ^= 1;
        bad.program = Bytes::from(body);
        assert_eq!(bad.verify(&signer.public).unwrap_err().kind(), "auth-failed");

        // Wrong signer.
        let other = KeyPair::generate_default(&mut rng);
        assert_eq!(img.verify(&other.public).unwrap_err().kind(), "auth-failed");
    }

    #[test]
    fn image_wire_round_trip() {
        let mut rng = Xoshiro256::seed_from_u64(2);
        let signer = KeyPair::generate_default(&mut rng);
        let img = CodeImage::sign(&mut rng, &signer, "job", &sample());
        let back = CodeImage::decode_from_bytes(img.encode_to_bytes()).unwrap();
        assert_eq!(back, img);
        assert!(back.verify(&signer.public).is_ok());
    }
}
