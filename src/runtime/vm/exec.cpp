#include "runtime/vm/exec.hpp"

#include <atomic>
#include <optional>
#include <vector>

#include "net/schema.hpp"
#include "runtime/vm/env_access.hpp"
#include "util/bytes.hpp"

namespace sage::runtime::vm {

namespace schema = net::schema;

namespace {

std::atomic<bool> g_count_ops{false};
std::atomic<std::uint64_t> g_op_counts[kNumOps];

inline void bump_op(Op op) {
  g_op_counts[static_cast<std::size_t>(op)].fetch_add(
      1, std::memory_order_relaxed);
}

/// Live execution state for one program run. The value stack is a flat
/// long array; `poison` is the linearized form of the tree's nullopt
/// propagation — a failed load pushes 0 and raises it, and the consuming
/// statement-level op (compare, store, effect call) turns it into the
/// tree-identical error string.
struct Frame {
  const Insn* code;
  const Program& prog;
  SchemaExecEnv& env;
  std::pmr::vector<EnvAccess::LayerImages>& wire;
  std::vector<long>& state;

  std::size_t ip = 0;
  std::uint32_t sp = 0;
  bool poison = false;
  bool halted = false;
  std::size_t ops = 0;
  std::size_t slow = 0;
  ExecResult result;
  long stack[kMaxStack];

  Frame(const Program& p, SchemaExecEnv& e)
      : code(p.code().data()),
        prog(p),
        env(e),
        wire(EnvAccess::wire(e)),
        state(EnvAccess::state(e)) {}
};

inline void fail(Frame& f, std::string message) {
  f.result.ok = false;
  f.result.errors.push_back(std::move(message));
}

inline void push_opt(Frame& f, const std::optional<long>& value) {
  if (!value) {
    f.poison = true;
    f.stack[f.sp++] = 0;
    return;
  }
  f.stack[f.sp++] = *value;
}

inline const schema::FieldSpec* spec_of(const Insn& in) {
  return reinterpret_cast<const schema::FieldSpec*>(
      static_cast<std::uintptr_t>(in.imm));
}

/// Pop the value of a store. Returns false (and emits the tree's
/// "expression failed" error) when the value expression poisoned.
inline bool store_value(Frame& f, long& value) {
  const Insn& in = f.code[f.ip];
  value = f.stack[--f.sp];
  if (f.poison) {
    f.poison = false;
    fail(f, "expression failed for assignment to " +
                f.prog.refs()[in.c].ref.to_string());
    return false;
  }
  return true;
}

inline void store_rejected(Frame& f) {
  fail(f, "cannot write field " +
              f.prog.refs()[f.code[f.ip].c].ref.to_string());
}

// -- op handlers ------------------------------------------------------------
// One inline function per opcode, shared by both dispatch loops. Each
// handler advances f.ip itself (jumps overwrite it), so the loops are
// pure dispatchers.

inline void op_kHalt(Frame& f) { f.halted = true; }

inline void op_kPushConst(Frame& f) {
  f.stack[f.sp++] = static_cast<long>(f.code[f.ip].imm);
  ++f.ip;
}

inline void op_kPushWire(Frame& f) {
  const Insn& in = f.code[f.ip];
  const auto& L = f.wire[in.b];
  // Selector honored when both packets exist; single-sided envs serve
  // their one image for either selector (same rule as read_field).
  const std::pmr::vector<std::uint8_t>* img =
      static_cast<codegen::PacketSel>(in.a) == codegen::PacketSel::kIncoming
          ? (L.has_in ? &L.in_image : (L.has_out ? &L.out_image : nullptr))
          : (L.has_out ? &L.out_image : (L.has_in ? &L.in_image : nullptr));
  if (img == nullptr) {
    f.poison = true;
    f.stack[f.sp++] = 0;
  } else {
    push_opt(f, schema::SchemaRegistry::read_scalar(*spec_of(in), *img));
  }
  ++f.ip;
}

inline void op_kPushPayload(Frame& f) {
  const Insn& in = f.code[f.ip];
  const auto& L = f.wire[in.b];
  const bool from_incoming =
      static_cast<codegen::PacketSel>(in.a) == codegen::PacketSel::kIncoming
          ? L.has_in
          : !L.has_out;
  const auto& pl = from_incoming ? L.in_payload : L.out_payload;
  const auto* spec = spec_of(in);
  if (pl.size() < spec->payload_offset + 4) {
    // Unwritten outgoing block reads 0; short incoming packet poisons.
    if (from_incoming) f.poison = true;
    f.stack[f.sp++] = 0;
  } else {
    f.stack[f.sp++] = static_cast<long>(
        util::get_be32({pl.data() + spec->payload_offset, 4}));
  }
  ++f.ip;
}

inline void op_kPushIp(Frame& f) {
  const Insn& in = f.code[f.ip];
  push_opt(f, EnvAccess::read_ip(f.env, static_cast<std::uint8_t>(in.b),
                                 static_cast<codegen::PacketSel>(in.a)));
  ++f.ip;
}

inline void op_kPushState(Frame& f) {
  f.stack[f.sp++] = f.state[f.code[f.ip].b];
  ++f.ip;
}

inline void op_kPushBfdState(Frame& f) {
  push_opt(f, EnvAccess::read_bfd_state(
                  f.env, static_cast<std::uint8_t>(f.code[f.ip].b)));
  ++f.ip;
}

inline void op_kPushHostGroup(Frame& f) {
  f.stack[f.sp++] = EnvAccess::host_group(f.env);
  ++f.ip;
}

inline void op_kPushZero(Frame& f) {
  f.stack[f.sp++] = 0;
  ++f.ip;
}

inline void op_kPushNull(Frame& f) {
  f.poison = true;
  f.stack[f.sp++] = 0;
  ++f.ip;
}

inline void op_kPushScenario(Frame& f) {
  f.stack[f.sp++] = EnvAccess::scenario_value(f.env);
  ++f.ip;
}

inline void op_kCmp(Frame& f) {
  const Insn& in = f.code[f.ip];
  const long rhs = f.stack[--f.sp];
  const long lhs = f.stack[--f.sp];
  if (f.poison) {
    // Exactly one error per compare, whichever operand(s) failed.
    f.poison = false;
    fail(f, "condition operand failed to evaluate");
    f.stack[f.sp++] = 0;
  } else {
    bool r = false;
    switch (static_cast<codegen::CmpOp>(in.a)) {
      case codegen::CmpOp::kEq: r = lhs == rhs; break;
      case codegen::CmpOp::kNe: r = lhs != rhs; break;
      case codegen::CmpOp::kGt: r = lhs > rhs; break;
      case codegen::CmpOp::kLt: r = lhs < rhs; break;
    }
    f.stack[f.sp++] = r ? 1 : 0;
  }
  ++f.ip;
}

inline void op_kJump(Frame& f) { f.ip = f.code[f.ip].c; }

inline void op_kJumpIfFalse(Frame& f) {
  const Insn& in = f.code[f.ip];
  f.ip = f.stack[--f.sp] == 0 ? in.c : f.ip + 1;
}

inline void op_kJumpIfTrue(Frame& f) {
  const Insn& in = f.code[f.ip];
  f.ip = f.stack[--f.sp] != 0 ? in.c : f.ip + 1;
}

inline void op_kCallScalar(Frame& f) {
  ++f.slow;
  const Insn& in = f.code[f.ip];
  f.sp -= in.a;
  if (f.poison) {
    // An argument failed: the tree never reaches the framework call.
    // Poison stays raised for the expression's consumer.
    f.stack[f.sp++] = 0;
  } else {
    const std::vector<long> args(f.stack + f.sp, f.stack + f.sp + in.a);
    push_opt(f, f.env.call_scalar(f.prog.names()[in.b], args));
  }
  ++f.ip;
}

inline void op_kCallEffect(Frame& f) {
  ++f.slow;
  const Insn& in = f.code[f.ip];
  f.sp -= in.a;
  bool ok = false;
  if (f.poison) {
    f.poison = false;
  } else {
    const std::vector<long> args(f.stack + f.sp, f.stack + f.sp + in.a);
    ok = f.env.call_effect(f.prog.names()[in.b], args);
  }
  if (!ok) fail(f, "framework call failed: " + f.prog.names()[in.b]);
  ++f.ip;
}

inline void op_kStoreWire(Frame& f) {
  const Insn& in = f.code[f.ip];
  long value;
  if (store_value(f, value)) {
    auto& L = f.wire[in.b];
    bool ok = false;
    if (L.has_out) {
      if (in.a != 0) {
        // RFC 792 pointer: the write owns the whole rest word.
        util::put_be32({L.out_image.data() + 4, 4},
                       static_cast<std::uint32_t>(
                           static_cast<std::uint8_t>(value))
                           << 24);
        ok = true;
      } else {
        ok = schema::SchemaRegistry::write_scalar(*spec_of(in), L.out_image,
                                                  value);
      }
    }
    if (!ok) store_rejected(f);
  }
  ++f.ip;
}

inline void op_kStorePayload(Frame& f) {
  const Insn& in = f.code[f.ip];
  long value;
  if (store_value(f, value)) {
    auto& L = f.wire[in.a];
    if (L.has_out) {
      // Block extent (in.b) precomputed at specialization time.
      if (L.out_payload.size() < in.b) L.out_payload.resize(in.b, 0);
      util::put_be32({L.out_payload.data() + spec_of(in)->payload_offset, 4},
                     static_cast<std::uint32_t>(value));
    } else {
      store_rejected(f);
    }
  }
  ++f.ip;
}

inline void op_kStoreIp(Frame& f) {
  const Insn& in = f.code[f.ip];
  long value;
  if (store_value(f, value)) {
    if (!EnvAccess::write_ip(f.env, static_cast<std::uint8_t>(in.b), value)) {
      store_rejected(f);
    }
  }
  ++f.ip;
}

inline void op_kStoreState(Frame& f) {
  const Insn& in = f.code[f.ip];
  long value;
  if (store_value(f, value)) f.state[in.b] = value;
  ++f.ip;
}

inline void op_kStoreBfdState(Frame& f) {
  const Insn& in = f.code[f.ip];
  long value;
  if (store_value(f, value)) {
    if (!EnvAccess::write_bfd_state(f.env, static_cast<std::uint8_t>(in.b),
                                    value)) {
      store_rejected(f);
    }
  }
  ++f.ip;
}

inline void op_kStoreNoop(Frame& f) {
  long value;
  if (store_value(f, value)) {
    // Write accepted and discarded (write_is_noop fields: icmp.unused).
  }
  ++f.ip;
}

inline void op_kStoreFail(Frame& f) {
  ++f.slow;
  long value;
  if (store_value(f, value)) store_rejected(f);
  ++f.ip;
}

inline void op_kAssignBytes(Frame& f) {
  ++f.slow;
  const Insn& in = f.code[f.ip];
  const auto src = static_cast<codegen::BytesSrc>(in.a & 0x0f);
  const auto sel = static_cast<codegen::PacketSel>(in.a >> 4);
  std::optional<std::vector<std::uint8_t>> bytes;
  if (src == codegen::BytesSrc::kField) {
    bytes = f.env.read_bytes(f.prog.refs()[in.b].ref, sel);
  } else if (src == codegen::BytesSrc::kCall) {
    bytes = f.env.call_bytes(f.prog.names()[in.b]);
  }
  const auto& target = f.prog.refs()[in.c].ref;
  if (!bytes) {
    fail(f, "byte-valued assignment failed for " + target.to_string());
  } else if (!f.env.write_bytes(target, std::move(*bytes))) {
    fail(f, "cannot write bytes field " + target.to_string());
  }
  ++f.ip;
}

inline void op_kCopyPayload(Frame& f) {
  const Insn& in = f.code[f.ip];
  const auto& src = f.wire[in.b].in_payload;
  f.wire[in.c].out_payload.assign(src.begin(), src.end());
  ++f.ip;
}

inline void op_kPushOption(Frame& f) {
  ++f.slow;
  const Insn& in = f.code[f.ip];
  push_opt(f, EnvAccess::read_option(f.env, static_cast<std::uint8_t>(in.b),
                                     *spec_of(in),
                                     static_cast<codegen::PacketSel>(in.a)));
  ++f.ip;
}

inline void op_kStoreOption(Frame& f) {
  ++f.slow;
  const Insn& in = f.code[f.ip];
  long value;
  if (store_value(f, value)) {
    if (!EnvAccess::write_option(f.env, static_cast<std::uint8_t>(in.b),
                                 *spec_of(in), value)) {
      store_rejected(f);
    }
  }
  ++f.ip;
}

// -- fused superinstructions (peephole pass in program.cpp) -----------------
// Each is observably identical to the sequence it replaces, including
// poison consumption and error strings, under ANY entry poison state.

inline bool cmp_eval(Frame& f, codegen::CmpOp op, long lhs, long rhs) {
  if (f.poison) {
    // The kCmp half of the pair: consume poison, one error, result 0.
    f.poison = false;
    fail(f, "condition operand failed to evaluate");
    return false;
  }
  switch (op) {
    case codegen::CmpOp::kEq: return lhs == rhs;
    case codegen::CmpOp::kNe: return lhs != rhs;
    case codegen::CmpOp::kGt: return lhs > rhs;
    case codegen::CmpOp::kLt: return lhs < rhs;
  }
  return false;
}

inline void op_kCmpBranch(Frame& f) {
  const Insn& in = f.code[f.ip];
  const long rhs = f.stack[--f.sp];
  const long lhs = f.stack[--f.sp];
  const bool r = cmp_eval(f, static_cast<codegen::CmpOp>(in.a), lhs, rhs);
  f.ip = r == (in.b != 0) ? in.c : f.ip + 1;
}

inline void op_kGuardScenario(Frame& f) {
  const Insn& in = f.code[f.ip];
  const bool r = cmp_eval(f, static_cast<codegen::CmpOp>(in.a),
                          EnvAccess::scenario_value(f.env),
                          static_cast<long>(in.imm));
  f.ip = r == (in.b != 0) ? in.c : f.ip + 1;
}

inline void op_kStoreWireConst(Frame& f) {
  const Insn& in = f.code[f.ip];
  if (f.poison) {
    // The kPushConst half cannot poison; this consumes poison raised
    // earlier, exactly as the original store's store_value would.
    f.poison = false;
    fail(f, "expression failed for assignment to " +
                f.prog.refs()[in.c].ref.to_string());
  } else {
    auto& L = f.wire[in.b >> 8];
    const long value = in.b & 0xff;
    bool ok = false;
    if (L.has_out) {
      if (in.a != 0) {
        util::put_be32({L.out_image.data() + 4, 4},
                       static_cast<std::uint32_t>(
                           static_cast<std::uint8_t>(value))
                           << 24);
        ok = true;
      } else {
        ok = schema::SchemaRegistry::write_scalar(*spec_of(in), L.out_image,
                                                  value);
      }
    }
    if (!ok) store_rejected(f);
  }
  ++f.ip;
}

/// Shared prologue of the specialized 0-arg effects: replays
/// op_kCallEffect's poison consumption (argument evaluation failed ->
/// the framework call never runs, same error string).
inline bool effect_entry(Frame& f) {
  if (f.poison) {
    f.poison = false;
    fail(f, "framework call failed: " + f.prog.names()[f.code[f.ip].b]);
    return false;
  }
  return true;
}

inline void op_kEffectChecksum(Frame& f) {
  if (effect_entry(f)) EnvAccess::set_checksum_computed(f.env);
  ++f.ip;
}

inline void op_kEffectReverse(Frame& f) {
  if (effect_entry(f)) EnvAccess::reverse_addresses(f.env);
  ++f.ip;
}

inline void op_kEffectTimeout(Frame& f) {
  if (effect_entry(f)) EnvAccess::set_timeout_called(f.env);
  ++f.ip;
}

inline void op_kEffectNop(Frame& f) {
  effect_entry(f);
  ++f.ip;
}

inline void op_kCopyIp(Frame& f) {
  const Insn& in = f.code[f.ip];
  const auto value =
      EnvAccess::read_ip(f.env, static_cast<std::uint8_t>(in.b >> 8),
                         static_cast<codegen::PacketSel>(in.a));
  if (f.poison || !value) {
    f.poison = false;
    fail(f, "expression failed for assignment to " +
                f.prog.refs()[in.c].ref.to_string());
  } else if (!EnvAccess::write_ip(
                 f.env, static_cast<std::uint8_t>(in.b & 0xff), *value)) {
    store_rejected(f);
  }
  ++f.ip;
}

// -- dispatch loops ---------------------------------------------------------

template <bool kCount>
void run_switch(Frame& f) {
  for (;;) {
    const Op op = f.code[f.ip].op;
    if constexpr (kCount) bump_op(op);
    ++f.ops;
    switch (op) {
#define SAGE_VM_CASE(name) \
  case Op::name:           \
    op_##name(f);          \
    break;
      SAGE_VM_OP_LIST(SAGE_VM_CASE)
#undef SAGE_VM_CASE
      case Op::kCount:
        f.halted = true;
        break;
    }
    if (f.halted) return;
  }
}

#if defined(__GNUC__) || defined(__clang__)
#define SAGE_VM_HAVE_COMPUTED_GOTO 1

template <bool kCount>
void run_goto(Frame& f) {
  static const void* const kLabels[] = {
#define SAGE_VM_LABEL(name) &&lbl_##name,
      SAGE_VM_OP_LIST(SAGE_VM_LABEL)
#undef SAGE_VM_LABEL
  };

#define SAGE_VM_DISPATCH()                                         \
  do {                                                             \
    const Op op_ = f.code[f.ip].op;                                \
    if constexpr (kCount) bump_op(op_);                            \
    ++f.ops;                                                       \
    goto* kLabels[static_cast<std::size_t>(op_)];                  \
  } while (0)

  SAGE_VM_DISPATCH();

#define SAGE_VM_BODY(name)       \
  lbl_##name : {                 \
    op_##name(f);                \
    if (f.halted) return;        \
    SAGE_VM_DISPATCH();          \
  }
  SAGE_VM_OP_LIST(SAGE_VM_BODY)
#undef SAGE_VM_BODY
#undef SAGE_VM_DISPATCH
}

#endif  // computed goto

}  // namespace

bool have_computed_goto() {
#if defined(SAGE_VM_HAVE_COMPUTED_GOTO)
  return true;
#else
  return false;
#endif
}

ExecResult execute(const Program& program, SchemaExecEnv& env,
                   DispatchMode mode) {
  if (EnvAccess::binding_key(env) != program.binding_key()) {
    ExecResult result;
    result.ok = false;
    result.errors.push_back("execution environment protocol mismatch for " +
                            program.function_name());
    return result;
  }

  Frame f(program, env);

  bool use_goto = false;
#if defined(SAGE_VM_HAVE_COMPUTED_GOTO)
  use_goto = mode != DispatchMode::kSwitch;
#else
  (void)mode;
#endif

  const bool count = g_count_ops.load(std::memory_order_relaxed);
#if defined(SAGE_VM_HAVE_COMPUTED_GOTO)
  if (use_goto) {
    if (count) {
      run_goto<true>(f);
    } else {
      run_goto<false>(f);
    }
  } else
#endif
  {
    if (count) {
      run_switch<true>(f);
    } else {
      run_switch<false>(f);
    }
  }

  codegen::note_vm_execution(f.ops, f.slow);
  return std::move(f.result);
}

void set_op_counting(bool enabled) {
  g_count_ops.store(enabled, std::memory_order_relaxed);
}

std::array<std::uint64_t, kNumOps> op_counts() {
  std::array<std::uint64_t, kNumOps> out{};
  for (std::size_t i = 0; i < kNumOps; ++i) {
    out[i] = g_op_counts[i].load(std::memory_order_relaxed);
  }
  return out;
}

void reset_op_counts() {
  for (auto& c : g_op_counts) c.store(0, std::memory_order_relaxed);
}

}  // namespace sage::runtime::vm
