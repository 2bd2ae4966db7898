//! The playground virtual machine: quota-enforced execution with
//! checkpointable state.

use snipe_util::codec::{WireDecode, WireEncode};
use snipe_util::error::SnipeResult;
use snipe_util::wire_codec;

use crate::bytecode::{Instr, Program};

/// Capability: may emit output values.
pub const CAP_EMIT: u32 = 1 << 0;
/// Capability: may send messages to other processes.
pub const CAP_SEND: u32 = 1 << 1;
/// Capability: may read the clock.
pub const CAP_TIME: u32 = 1 << 2;
/// Capability: may write log lines.
pub const CAP_LOG: u32 = 1 << 3;

/// Syscall numbers.
pub mod sys {
    /// Pop a value and emit it as program output (CAP_EMIT).
    pub const EMIT: u8 = 1;
    /// Pop target and value; send value to target (CAP_SEND).
    pub const SEND: u8 = 2;
    /// Push the current time in milliseconds (CAP_TIME).
    pub const NOW_MS: u8 = 3;
    /// Pop a value and log it (CAP_LOG).
    pub const LOG: u8 = 4;
    /// Push the next input value, or trap if none (no capability —
    /// input is provided by the supervisor).
    pub const READ_INPUT: u8 = 5;
}

/// Resource quotas enforced by the playground (§3.6, §5.8).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Quotas {
    /// Maximum instructions over the program's lifetime (CPU time).
    pub fuel: u64,
    /// Maximum operand-stack depth (memory).
    pub max_stack: u64,
    /// Maximum call depth.
    pub max_calls: u64,
    /// Maximum emitted outputs.
    pub max_outputs: u64,
}

wire_codec!(struct Quotas { fuel, max_stack, max_calls, max_outputs });

impl Default for Quotas {
    fn default() -> Self {
        Quotas { fuel: 1_000_000, max_stack: 1024, max_calls: 128, max_outputs: 4096 }
    }
}

/// Why execution stopped abnormally.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trap {
    /// Instruction budget exhausted.
    FuelExhausted,
    /// Operand stack overflow (quota).
    StackOverflow,
    /// Operand stack underflow (malformed code).
    StackUnderflow,
    /// Call depth quota exceeded.
    CallOverflow,
    /// Return with empty call stack.
    CallUnderflow,
    /// Division or modulo by zero.
    DivideByZero,
    /// Syscall without the required capability.
    CapabilityDenied,
    /// Output quota exceeded.
    OutputQuota,
    /// READ_INPUT with no input available.
    NoInput,
    /// Unknown syscall number.
    BadSyscall,
    /// Program counter ran off the end of the code.
    PcOutOfRange,
}

// Tags are declaration order, as checkpoints have always written them.
wire_codec!(enum Trap {
    0 => FuelExhausted,
    1 => StackOverflow,
    2 => StackUnderflow,
    3 => CallOverflow,
    4 => CallUnderflow,
    5 => DivideByZero,
    6 => CapabilityDenied,
    7 => OutputQuota,
    8 => NoInput,
    9 => BadSyscall,
    10 => PcOutOfRange,
});

/// One step / run outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// More work to do.
    Running,
    /// Halted successfully.
    Halted,
    /// Stopped by a trap (final).
    Trapped(Trap),
}

// A checkpoint's last field. `Running` is tag 0, the byte an unfinished
// VM's checkpoint has always ended with; tag 1 (finished, yet running)
// is no state a VM reaches, so it is not listed.
wire_codec!(enum StepOutcome { 0 => Running, 2 => Halted, 3 => Trapped(trap) });

/// Host services a running program may invoke (capability-gated).
pub trait SyscallHost {
    /// Current time in milliseconds.
    fn now_ms(&mut self) -> i64;
    /// Deliver a message to another process.
    fn send(&mut self, target: i64, value: i64);
    /// Log a value.
    fn log(&mut self, value: i64);
}

/// A no-op host for pure computations and tests.
#[derive(Default)]
pub struct NullHost {
    /// Messages "sent".
    pub sent: Vec<(i64, i64)>,
    /// Values logged.
    pub logged: Vec<i64>,
    /// The time returned by `now_ms`.
    pub time_ms: i64,
}

impl SyscallHost for NullHost {
    fn now_ms(&mut self) -> i64 {
        self.time_ms
    }
    fn send(&mut self, target: i64, value: i64) {
        self.sent.push((target, value));
    }
    fn log(&mut self, value: i64) {
        self.logged.push(value);
    }
}

/// The virtual machine. All state is plain data: checkpointing is
/// [`Vm::checkpoint`] / [`Vm::restore`] through the canonical codec,
/// fields in declaration order.
#[derive(Clone, Debug, PartialEq)]
pub struct Vm {
    code: Vec<Instr>,
    pc: u32,
    stack: Vec<i64>,
    locals: Vec<i64>,
    calls: Vec<u32>,
    /// Remaining instruction budget.
    fuel_left: u64,
    quotas: Quotas,
    caps: u32,
    /// Input queue (supervisor-provided).
    pub inputs: Vec<i64>,
    input_pos: u64,
    /// Emitted outputs.
    pub outputs: Vec<i64>,
    /// `Running` until the program halts or traps.
    outcome: StepOutcome,
}

wire_codec!(struct Vm {
    code, pc, stack, locals, calls, fuel_left, quotas, caps, inputs, input_pos, outputs, outcome
});

impl Vm {
    /// Load a (verified) program with granted capabilities and quotas.
    pub fn new(program: &Program, caps: u32, quotas: Quotas) -> Vm {
        Vm {
            code: program.code.clone(),
            pc: 0,
            stack: Vec::new(),
            locals: vec![0; program.locals as usize],
            calls: Vec::new(),
            fuel_left: quotas.fuel,
            quotas,
            caps,
            inputs: Vec::new(),
            input_pos: 0,
            outputs: Vec::new(),
            outcome: StepOutcome::Running,
        }
    }

    /// Fuel remaining.
    pub fn fuel_left(&self) -> u64 {
        self.fuel_left
    }

    /// Final outcome if the program has stopped.
    pub fn finished(&self) -> Option<StepOutcome> {
        (self.outcome != StepOutcome::Running).then_some(self.outcome)
    }

    fn pop(&mut self) -> Result<i64, Trap> {
        self.stack.pop().ok_or(Trap::StackUnderflow)
    }

    fn push(&mut self, v: i64) -> Result<(), Trap> {
        if self.stack.len() as u64 >= self.quotas.max_stack {
            return Err(Trap::StackOverflow);
        }
        self.stack.push(v);
        Ok(())
    }

    fn binop(&mut self, f: impl Fn(i64, i64) -> Result<i64, Trap>) -> Result<(), Trap> {
        let b = self.pop()?;
        let a = self.pop()?;
        let r = f(a, b)?;
        self.push(r)
    }

    /// Execute one instruction.
    pub fn step(&mut self, host: &mut dyn SyscallHost) -> StepOutcome {
        if self.outcome != StepOutcome::Running {
            return self.outcome;
        }
        if self.fuel_left == 0 {
            return self.trap(Trap::FuelExhausted);
        }
        self.fuel_left -= 1;
        let Some(&instr) = self.code.get(self.pc as usize) else {
            return self.trap(Trap::PcOutOfRange);
        };
        self.pc += 1;
        let r: Result<(), Trap> = (|| {
            match instr {
                Instr::PushI(v) => self.push(v)?,
                Instr::Pop => {
                    self.pop()?;
                }
                Instr::Dup => {
                    let v = *self.stack.last().ok_or(Trap::StackUnderflow)?;
                    self.push(v)?;
                }
                Instr::Swap => {
                    let b = self.pop()?;
                    let a = self.pop()?;
                    self.push(b)?;
                    self.push(a)?;
                }
                Instr::Add => self.binop(|a, b| Ok(a.wrapping_add(b)))?,
                Instr::Sub => self.binop(|a, b| Ok(a.wrapping_sub(b)))?,
                Instr::Mul => self.binop(|a, b| Ok(a.wrapping_mul(b)))?,
                Instr::Div => self.binop(|a, b| {
                    if b == 0 {
                        Err(Trap::DivideByZero)
                    } else {
                        Ok(a.wrapping_div(b))
                    }
                })?,
                Instr::Mod => self.binop(|a, b| {
                    if b == 0 {
                        Err(Trap::DivideByZero)
                    } else {
                        Ok(a.wrapping_rem(b))
                    }
                })?,
                Instr::Neg => {
                    let v = self.pop()?;
                    self.push(v.wrapping_neg())?;
                }
                Instr::Eq => self.binop(|a, b| Ok((a == b) as i64))?,
                Instr::Lt => self.binop(|a, b| Ok((a < b) as i64))?,
                Instr::Gt => self.binop(|a, b| Ok((a > b) as i64))?,
                Instr::Not => {
                    let v = self.pop()?;
                    self.push((v == 0) as i64)?;
                }
                Instr::Load(s) => {
                    let v = self.locals[s as usize];
                    self.push(v)?;
                }
                Instr::Store(s) => {
                    let v = self.pop()?;
                    self.locals[s as usize] = v;
                }
                Instr::Jmp(t) => self.pc = t,
                Instr::Jz(t) => {
                    if self.pop()? == 0 {
                        self.pc = t;
                    }
                }
                Instr::Call(t) => {
                    if self.calls.len() as u64 >= self.quotas.max_calls {
                        return Err(Trap::CallOverflow);
                    }
                    self.calls.push(self.pc);
                    self.pc = t;
                }
                Instr::Ret => {
                    self.pc = self.calls.pop().ok_or(Trap::CallUnderflow)?;
                }
                Instr::Halt => {
                    self.outcome = StepOutcome::Halted;
                }
                Instr::Syscall(n) => match n {
                    sys::EMIT => {
                        if self.caps & CAP_EMIT == 0 {
                            return Err(Trap::CapabilityDenied);
                        }
                        if self.outputs.len() as u64 >= self.quotas.max_outputs {
                            return Err(Trap::OutputQuota);
                        }
                        let v = self.pop()?;
                        self.outputs.push(v);
                    }
                    sys::SEND => {
                        if self.caps & CAP_SEND == 0 {
                            return Err(Trap::CapabilityDenied);
                        }
                        let value = self.pop()?;
                        let target = self.pop()?;
                        host.send(target, value);
                    }
                    sys::NOW_MS => {
                        if self.caps & CAP_TIME == 0 {
                            return Err(Trap::CapabilityDenied);
                        }
                        let t = host.now_ms();
                        self.push(t)?;
                    }
                    sys::LOG => {
                        if self.caps & CAP_LOG == 0 {
                            return Err(Trap::CapabilityDenied);
                        }
                        let v = self.pop()?;
                        host.log(v);
                    }
                    sys::READ_INPUT => {
                        let Some(&v) = self.inputs.get(self.input_pos as usize) else {
                            return Err(Trap::NoInput);
                        };
                        self.input_pos += 1;
                        self.push(v)?;
                    }
                    _ => return Err(Trap::BadSyscall),
                },
            }
            Ok(())
        })();
        match r {
            Err(t) => self.trap(t),
            Ok(()) => self.outcome,
        }
    }

    fn trap(&mut self, t: Trap) -> StepOutcome {
        self.outcome = StepOutcome::Trapped(t);
        self.outcome
    }

    /// Run up to `slice` instructions (one fuel slice, §5.8 preemption).
    pub fn run_slice(&mut self, slice: u64, host: &mut dyn SyscallHost) -> StepOutcome {
        for _ in 0..slice {
            match self.step(host) {
                StepOutcome::Running => continue,
                done => return done,
            }
        }
        StepOutcome::Running
    }

    /// Serialize the complete machine state.
    pub fn checkpoint(&self) -> bytes::Bytes {
        self.encode_to_bytes()
    }

    /// Restore a machine from a checkpoint. A checkpoint can arrive
    /// over the network with a migrating agent, so its code is held to
    /// [`Program::verify_static`], which [`Vm::step`] relies on.
    pub fn restore(bytes: bytes::Bytes) -> SnipeResult<Vm> {
        let vm = Vm::decode_from_bytes(bytes)?;
        let locals = u16::try_from(vm.locals.len()).unwrap_or(u16::MAX);
        Program { code: vm.code.clone(), locals, required_caps: 0 }.verify_static()?;
        Ok(vm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::Program;

    fn run_program(code: Vec<Instr>, locals: u16, caps: u32) -> (Vm, StepOutcome) {
        let p = Program { code, locals, required_caps: caps };
        p.verify_static().unwrap();
        let mut vm = Vm::new(&p, caps, Quotas::default());
        let mut host = NullHost::default();
        let out = vm.run_slice(1_000_000, &mut host);
        (vm, out)
    }

    #[test]
    fn arithmetic_and_emit() {
        let (vm, out) = run_program(
            vec![
                Instr::PushI(6),
                Instr::PushI(7),
                Instr::Mul,
                Instr::Syscall(sys::EMIT),
                Instr::Halt,
            ],
            0,
            CAP_EMIT,
        );
        assert_eq!(out, StepOutcome::Halted);
        assert_eq!(vm.outputs, vec![42]);
    }

    #[test]
    fn loop_with_locals_computes_sum() {
        // sum 1..=10 into local0, i in local1
        let code = vec![
            // i = 10
            Instr::PushI(10),
            Instr::Store(1),
            // loop: if i == 0 jump to end(12)
            Instr::Load(1), // 2
            Instr::Jz(12),  // 3
            // sum += i
            Instr::Load(0),  // 4
            Instr::Load(1),  // 5
            Instr::Add,      // 6
            Instr::Store(0), // 7
            // i -= 1
            Instr::Load(1),  // 8
            Instr::PushI(1), // 9
            Instr::Sub,      // 10
            Instr::Store(1), // 11 -> falls through? need jump back
            // (12) emit sum
            Instr::Load(0),
            Instr::Syscall(sys::EMIT),
            Instr::Halt,
        ];
        // Insert jump back: easier to rebuild with explicit indices.
        let code = {
            let mut c = code;
            // after Store(1) at index 11, jump back to 2; shift end labels
            c.insert(12, Instr::Jmp(2));
            // now "end" is at 13: fix Jz target
            c[3] = Instr::Jz(13);
            c
        };
        let (vm, out) = run_program(code, 2, CAP_EMIT);
        assert_eq!(out, StepOutcome::Halted);
        assert_eq!(vm.outputs, vec![55]);
    }

    #[test]
    fn call_and_ret() {
        // main: push 5, call square(4), emit, halt; square: dup, mul, ret
        let code = vec![
            Instr::PushI(5),
            Instr::Call(4),
            Instr::Syscall(sys::EMIT),
            Instr::Halt,
            Instr::Dup, // 4
            Instr::Mul,
            Instr::Ret,
        ];
        let (vm, out) = run_program(code, 0, CAP_EMIT);
        assert_eq!(out, StepOutcome::Halted);
        assert_eq!(vm.outputs, vec![25]);
    }

    #[test]
    fn fuel_quota_traps_infinite_loop() {
        let p = Program { code: vec![Instr::Jmp(0)], locals: 0, required_caps: 0 };
        let mut vm = Vm::new(&p, 0, Quotas { fuel: 1000, ..Quotas::default() });
        let mut host = NullHost::default();
        let out = vm.run_slice(10_000, &mut host);
        assert_eq!(out, StepOutcome::Trapped(Trap::FuelExhausted));
        assert_eq!(vm.fuel_left(), 0);
    }

    #[test]
    fn capability_denied_without_grant() {
        let (_, out) = run_program(
            vec![Instr::PushI(1), Instr::Syscall(sys::EMIT), Instr::Halt],
            0,
            0, // no caps granted
        );
        assert_eq!(out, StepOutcome::Trapped(Trap::CapabilityDenied));
    }

    #[test]
    fn divide_by_zero_traps() {
        let (_, out) =
            run_program(vec![Instr::PushI(1), Instr::PushI(0), Instr::Div, Instr::Halt], 0, 0);
        assert_eq!(out, StepOutcome::Trapped(Trap::DivideByZero));
    }

    #[test]
    fn stack_quota_enforced() {
        // push forever
        let p = Program { code: vec![Instr::PushI(1), Instr::Jmp(0)], locals: 0, required_caps: 0 };
        let mut vm = Vm::new(&p, 0, Quotas { max_stack: 16, ..Quotas::default() });
        let out = vm.run_slice(1000, &mut NullHost::default());
        assert_eq!(out, StepOutcome::Trapped(Trap::StackOverflow));
    }

    #[test]
    fn stack_underflow_traps() {
        let (_, out) = run_program(vec![Instr::Pop, Instr::Halt], 0, 0);
        assert_eq!(out, StepOutcome::Trapped(Trap::StackUnderflow));
    }

    #[test]
    fn input_reading() {
        let p = Program {
            code: vec![
                Instr::Syscall(sys::READ_INPUT),
                Instr::Syscall(sys::READ_INPUT),
                Instr::Add,
                Instr::Syscall(sys::EMIT),
                Instr::Halt,
            ],
            locals: 0,
            required_caps: CAP_EMIT,
        };
        let mut vm = Vm::new(&p, CAP_EMIT, Quotas::default());
        vm.inputs = vec![20, 22];
        let out = vm.run_slice(100, &mut NullHost::default());
        assert_eq!(out, StepOutcome::Halted);
        assert_eq!(vm.outputs, vec![42]);
        // Without inputs: trap.
        let mut vm2 = Vm::new(&p, CAP_EMIT, Quotas::default());
        assert_eq!(
            vm2.run_slice(100, &mut NullHost::default()),
            StepOutcome::Trapped(Trap::NoInput)
        );
    }

    #[test]
    fn host_send_and_log() {
        let p = Program {
            code: vec![
                Instr::PushI(9),  // target
                Instr::PushI(42), // value
                Instr::Syscall(sys::SEND),
                Instr::PushI(7),
                Instr::Syscall(sys::LOG),
                Instr::Syscall(sys::NOW_MS),
                Instr::Syscall(sys::EMIT),
                Instr::Halt,
            ],
            locals: 0,
            required_caps: CAP_SEND | CAP_LOG | CAP_TIME | CAP_EMIT,
        };
        let mut vm = Vm::new(&p, CAP_SEND | CAP_LOG | CAP_TIME | CAP_EMIT, Quotas::default());
        let mut host = NullHost { time_ms: 1234, ..NullHost::default() };
        assert_eq!(vm.run_slice(100, &mut host), StepOutcome::Halted);
        assert_eq!(host.sent, vec![(9, 42)]);
        assert_eq!(host.logged, vec![7]);
        assert_eq!(vm.outputs, vec![1234]);
    }

    #[test]
    fn checkpoint_restore_is_byte_exact_and_resumable() {
        // Long-running loop summing inputs; checkpoint mid-flight.
        let code = vec![
            Instr::PushI(1000),
            Instr::Store(1),
            Instr::Load(1), // 2
            Instr::Jz(13),
            Instr::Load(0),
            Instr::Load(1),
            Instr::Add,
            Instr::Store(0),
            Instr::Load(1),
            Instr::PushI(1),
            Instr::Sub,
            Instr::Store(1),
            Instr::Jmp(2),
            Instr::Load(0), // 13
            Instr::Syscall(sys::EMIT),
            Instr::Halt,
        ];
        let p = Program { code, locals: 2, required_caps: CAP_EMIT };
        let mut host = NullHost::default();
        // Reference: run to completion in one go.
        let mut reference = Vm::new(&p, CAP_EMIT, Quotas::default());
        assert_eq!(reference.run_slice(100_000, &mut host), StepOutcome::Halted);

        // Run 500 steps, checkpoint, restore, continue.
        let mut vm = Vm::new(&p, CAP_EMIT, Quotas::default());
        assert_eq!(vm.run_slice(500, &mut host), StepOutcome::Running);
        let ckpt = vm.checkpoint();
        let mut restored = Vm::restore(ckpt.clone()).unwrap();
        assert_eq!(restored, vm);
        // Double round trip is stable.
        assert_eq!(restored.checkpoint(), ckpt);
        assert_eq!(restored.run_slice(100_000, &mut host), StepOutcome::Halted);
        assert_eq!(restored.outputs, reference.outputs);
        assert_eq!(restored.fuel_left(), reference.fuel_left());
    }

    #[test]
    fn a_checkpoint_naming_a_missing_local_is_refused() {
        let p = Program { code: vec![Instr::Load(3)], locals: 1, required_caps: 0 };
        let vm = Vm::new(&p, 0, Quotas::default());
        let err = Vm::restore(vm.checkpoint()).unwrap_err();
        assert!(err.to_string().contains("local 3 out of range (1)"), "{err}");
    }

    #[test]
    fn trapped_vm_checkpoint_round_trips() {
        let p = Program { code: vec![Instr::Pop], locals: 0, required_caps: 0 };
        let mut vm = Vm::new(&p, 0, Quotas::default());
        vm.step(&mut NullHost::default());
        let restored = Vm::restore(vm.checkpoint()).unwrap();
        assert_eq!(restored.finished(), Some(StepOutcome::Trapped(Trap::StackUnderflow)));
    }
}
