// The threaded-code VM's contract battery (docs/EXECUTION.md):
//
//   1. Parity — hand-built IR edge cases (poison propagation, error
//      strings, And/Or/Not short-circuit, bytes assignment) execute
//      identically on the tree interpreter and the compiled program:
//      same ExecResult, same error text in the same order, same env
//      mutations.
//   2. Dispatchers — the computed-goto and portable switch loops agree
//      byte-for-byte, and the switch loop is exercised explicitly so a
//      build where it rotted fails here, not on an exotic toolchain.
//   3. Mechanics — compilation bounds (kMaxStack), the binding-key
//      guard, op counters, ExecStats, and program introspection.
#include <gtest/gtest.h>

#include "codegen/lowering.hpp"
#include "core/generated_icmp.hpp"
#include "net/icmp.hpp"
#include "net/ipv4.hpp"
#include "net/ipv6.hpp"
#include "runtime/interpreter.hpp"
#include "runtime/schema_env.hpp"
#include "runtime/vm/exec.hpp"
#include "runtime/vm/program.hpp"
#include "sim/ping.hpp"
#include "util/bytes.hpp"

namespace sage::runtime {
namespace {

using codegen::CmpOp;
using codegen::Cond;
using codegen::Expr;
using codegen::FieldRef;
using codegen::PacketSel;
using codegen::Stmt;

std::vector<std::uint8_t> echo_request() {
  return sim::PingClient::make_echo_request(net::IpAddr(10, 0, 1, 100),
                                            net::IpAddr(10, 0, 1, 1),
                                            {0xde, 0xad, 0xbe, 0xef});
}

const net::Ip6Addr kClient6 =
    net::Ip6Addr::from_groups(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1);
const net::Ip6Addr kServer6 =
    net::Ip6Addr::from_groups(0x2001, 0xdb8, 0, 0, 0, 0, 0, 2);

std::vector<std::uint8_t> echo6_request() {
  std::vector<std::uint8_t> msg = {128, 0, 0, 0, 0x12, 0x34, 0, 1,
                                   0xde, 0xad, 0xbe, 0xef};
  net::Ipv6Header ip;
  ip.next_header = net::kIpProtoIcmp6;
  ip.src = kClient6;
  ip.dst = kServer6;
  util::put_be16({msg.data() + 2, 2}, net::icmp6_checksum(ip.src, ip.dst, msg));
  return net::build_ipv6_packet(ip, msg);
}

codegen::GeneratedFunction wrap(std::vector<Stmt> body,
                                const std::string& protocol = "ICMP") {
  codegen::GeneratedFunction fn;
  fn.name = "vm_test_fn";
  fn.protocol = protocol;
  fn.body = Stmt::seq(std::move(body));
  return fn;
}

/// Run `body` on both backends against identically-constructed ICMP (or
/// ICMPv6) echo envs and demand full observable agreement: result flag,
/// error text in order, and the serialized reply.
void expect_parity(std::vector<Stmt> body, const std::string& scenario = "",
                   vm::DispatchMode mode = vm::DispatchMode::kDefault,
                   const std::string& protocol = "ICMP") {
  const auto fn = wrap(std::move(body), protocol);
  const auto program = vm::compile(fn);
  ASSERT_TRUE(program.has_value());

  const bool v6 = protocol == "ICMP6";
  const auto request = v6 ? echo6_request() : echo_request();
  const auto make_env = [&] {
    return v6 ? SchemaExecEnv::icmp6(request, kServer6,
                                     /*start_from_incoming=*/true)
              : SchemaExecEnv::icmp(request, net::IpAddr(10, 0, 1, 1),
                                    /*start_from_incoming=*/true);
  };
  auto env_tree = make_env();
  auto env_vm = make_env();
  if (!scenario.empty()) {
    env_tree.set_scenario(scenario);
    env_vm.set_scenario(scenario);
  }

  const ExecResult tree = Interpreter().run(fn.body, env_tree);
  const ExecResult vm = vm::execute(*program, env_vm, mode);

  EXPECT_EQ(tree.ok, vm.ok);
  EXPECT_EQ(tree.errors, vm.errors);
  EXPECT_EQ(env_tree.finish_reply(), env_vm.finish_reply());
}

// ---- 1. Parity on hand-built edge cases -----------------------------------

TEST(VmParity, SimpleAssignAndConditionalChain) {
  expect_parity({
      Stmt::assign({"icmp", "type"}, Expr::constant(0)),
      Stmt::if_then(
          Cond::compare(Expr::field_read({"icmp", "type"}, PacketSel::kIncoming),
                        CmpOp::kEq, Expr::constant(8)),
          {Stmt::assign({"icmp", "code"}, Expr::constant(0)),
           Stmt::call("reverse_addresses")}),
  });
}

TEST(VmParity, UnknownFieldErrorsMatchTreeExactly) {
  // Unknown write target, unknown read in an expression, unknown read
  // as a condition operand: each produces the tree's exact diagnostic.
  expect_parity({Stmt::assign({"icmp", "bogus"}, Expr::constant(1))});
  expect_parity({Stmt::assign({"icmp", "code"},
                              Expr::field_read({"icmp", "bogus"}))});
  expect_parity({Stmt::if_then(
      Cond::compare(Expr::field_read({"icmp", "bogus"}), CmpOp::kEq,
                    Expr::constant(0)),
      {Stmt::assign({"icmp", "code"}, Expr::constant(1))})});
  expect_parity({Stmt::if_then(
      Cond::compare(Expr::constant(0), CmpOp::kEq,
                    Expr::field_read({"nosuch", "field"})),
      {Stmt::assign({"icmp", "code"}, Expr::constant(1))})});
}

TEST(VmParity, PoisonPropagatesThroughScalarCallArguments) {
  // A failed field read inside a call argument list must poison the
  // call itself (the tree evaluates args first and aborts the call).
  expect_parity({Stmt::assign(
      {"icmp", "code"},
      Expr::call("error_octet", {Expr::field_read({"icmp", "bogus"})}))});
  // And a failed argument to an effect call skips the effect.
  expect_parity({Stmt::call("reverse_addresses",
                            {Expr::field_read({"icmp", "bogus"})})});
}

TEST(VmParity, UnknownFrameworkCallsMatch) {
  expect_parity({Stmt::call("no_such_framework_function")});
  expect_parity({Stmt::assign({"icmp", "code"},
                              Expr::call("no_such_scalar_function"))});
}

TEST(VmParity, ShortCircuitAndOrNot) {
  const auto is_echo =
      Cond::compare(Expr::field_read({"icmp", "type"}, PacketSel::kIncoming),
                    CmpOp::kEq, Expr::constant(8));
  const auto never =
      Cond::compare(Expr::constant(1), CmpOp::kEq, Expr::constant(2));
  const auto poisoned =
      Cond::compare(Expr::field_read({"icmp", "bogus"}), CmpOp::kEq,
                    Expr::constant(0));

  expect_parity({Stmt::if_then(Cond::conj({is_echo, never}),
                               {Stmt::assign({"icmp", "code"},
                                             Expr::constant(1))})});
  expect_parity({Stmt::if_then(Cond::disj({never, is_echo}),
                               {Stmt::assign({"icmp", "code"},
                                             Expr::constant(2))})});
  expect_parity({Stmt::if_then(Cond::negate(never),
                               {Stmt::assign({"icmp", "code"},
                                             Expr::constant(3))})});
  // Short-circuit must skip the poisoned operand entirely (no error)...
  expect_parity({Stmt::if_then(Cond::conj({never, poisoned}),
                               {Stmt::assign({"icmp", "code"},
                                             Expr::constant(4))})});
  // ...but reach it when the left side passes (one error, tree-identical).
  expect_parity({Stmt::if_then(Cond::conj({is_echo, poisoned}),
                               {Stmt::assign({"icmp", "code"},
                                             Expr::constant(5))})});
  // Empty conjunction/disjunction (vacuous truth/falsity).
  expect_parity({Stmt::if_then(Cond::conj({}),
                               {Stmt::assign({"icmp", "code"},
                                             Expr::constant(6))})});
  expect_parity({Stmt::if_then(Cond::disj({}),
                               {Stmt::assign({"icmp", "code"},
                                             Expr::constant(7))})});
}

TEST(VmParity, BytesAssignmentVariants) {
  // The payload-copy fast path...
  expect_parity({Stmt::assign(
      {"icmp", "data"},
      Expr::field_read({"icmp", "data"}, PacketSel::kIncoming))});
  // ...the ICMP original-datagram excerpt call...
  expect_parity({Stmt::assign({"icmp", "data"}, Expr::call("copy_field"))});
  // ...and a bytes source that cannot produce bytes (tree error text).
  expect_parity({Stmt::assign({"icmp", "data"}, Expr::call("no_such_bytes"))});
  // ICMPv6 lists the same byte-valued framework functions as ICMP: an
  // excerpt assigned to a scalar field is a bytes assignment on both
  // backends ("cannot write bytes field icmp6.code").
  expect_parity({Stmt::assign({"icmp6", "code"},
                              Expr::call("original_datagram_excerpt"))},
                "", vm::DispatchMode::kDefault, "ICMP6");
}

TEST(VmParity, ScenarioSymbolIsPerRun) {
  const std::vector<Stmt> body = {Stmt::if_then(
      Cond::compare(Expr::symbol("scenario"), CmpOp::kEq,
                    Expr::symbol("net unreachable")),
      {Stmt::assign({"icmp", "code"}, Expr::constant(0))})};
  expect_parity(body, "net unreachable");
  expect_parity(body, "port unreachable");
}

TEST(VmParity, CommentsAndEmptySequencesAreNoops) {
  expect_parity({Stmt::comment("@AdvComment provenance only"),
                 Stmt::seq({}),
                 Stmt::assign({"icmp", "type"}, Expr::constant(0))});
}

// ---- 2. Dispatcher agreement ----------------------------------------------

TEST(VmDispatch, SwitchLoopIsAlwaysBuiltAndAgreesWithDefault) {
  // The portable switch dispatcher is the reference loop; it must be
  // compiled and runnable in every configuration (the vm-smoke preset
  // runs this file under ASan+UBSan on both dispatchers).
  const std::vector<Stmt> body = {
      Stmt::assign({"icmp", "type"}, Expr::constant(0)),
      Stmt::call("reverse_addresses"),
      Stmt::assign({"icmp", "checksum"}, Expr::constant(0)),
      Stmt::call("recompute_checksum"),
  };
  expect_parity(body, "", vm::DispatchMode::kSwitch);
  expect_parity(body, "", vm::DispatchMode::kComputedGoto);
  expect_parity(body, "", vm::DispatchMode::kDefault);
}

TEST(VmDispatch, GotoAndSwitchProduceIdenticalReplies) {
  const auto& run = core::canonical_icmp_run();
  ASSERT_FALSE(run.functions.empty());
  const auto request = echo_request();
  for (const auto& fn : run.functions) {
    const auto program = vm::compile(fn);
    ASSERT_TRUE(program.has_value()) << fn.name;
    auto env_goto = SchemaExecEnv::icmp(request, net::IpAddr(10, 0, 1, 1),
                                        /*start_from_incoming=*/true);
    auto env_switch = SchemaExecEnv::icmp(request, net::IpAddr(10, 0, 1, 1),
                                          /*start_from_incoming=*/true);
    const ExecResult a =
        vm::execute(*program, env_goto, vm::DispatchMode::kComputedGoto);
    const ExecResult b =
        vm::execute(*program, env_switch, vm::DispatchMode::kSwitch);
    EXPECT_EQ(a.ok, b.ok) << fn.name;
    EXPECT_EQ(a.errors, b.errors) << fn.name;
    EXPECT_EQ(env_goto.finish_reply(), env_switch.finish_reply()) << fn.name;
  }
}

// ---- 3. Compilation + executor mechanics ----------------------------------

TEST(VmProgram, EveryGeneratedIcmpFunctionCompiles) {
  for (const auto& fn : core::canonical_icmp_run().functions) {
    const auto linear = codegen::compile_to_program(fn);
    EXPECT_LE(linear.max_stack, vm::kMaxStack) << fn.name;
    EXPECT_FALSE(linear.code.empty()) << fn.name;

    const auto program = vm::compile(linear);
    ASSERT_TRUE(program.has_value()) << fn.name;
    EXPECT_EQ(program->function_name(), fn.name);
    EXPECT_EQ(program->protocol(), fn.protocol);
    // Superinstruction fusion only ever shrinks the listing.
    EXPECT_LE(program->code().size(), linear.code.size());
    EXPECT_GT(program->code().size(), 0u) << fn.name;
    EXPECT_GT(program->program_bytes(), 0u) << fn.name;
    EXPECT_GT(program->arena_bytes(), 0u) << fn.name;
    EXPECT_NE(program->binding_key(), nullptr) << fn.name;

    const auto listing = program->disassemble();
    EXPECT_NE(listing.find(vm::op_name(vm::Op::kHalt)), std::string::npos)
        << fn.name;
  }
}

TEST(VmProgram, PeepholeFusionEngagesOnGeneratedHandlers) {
  // The echo receiver is all hot idioms: scenario guards, const stores,
  // the ip copy, and trivial effects must all collapse into
  // superinstructions, shrinking the listing well below the linear form.
  for (const auto& fn : core::canonical_icmp_run().functions) {
    if (fn.name.find("echo") == std::string::npos || fn.role != "receiver") {
      continue;
    }
    const auto linear = codegen::compile_to_program(fn);
    const auto program = vm::compile(linear);
    ASSERT_TRUE(program.has_value());
    EXPECT_LT(program->code().size(), linear.code.size());
    const auto listing = program->disassemble();
    EXPECT_NE(listing.find(vm::op_name(vm::Op::kGuardScenario)),
              std::string::npos);
    EXPECT_NE(listing.find(vm::op_name(vm::Op::kStoreWireConst)),
              std::string::npos);
    EXPECT_NE(listing.find(vm::op_name(vm::Op::kCopyIp)), std::string::npos);
    EXPECT_NE(listing.find(vm::op_name(vm::Op::kEffectChecksum)),
              std::string::npos);
    // Nothing left to string-dispatch: the generic effect op is gone.
    EXPECT_EQ(listing.find(vm::op_name(vm::Op::kCallEffect)),
              std::string::npos);
  }
}

TEST(VmProgram, MovedProgramStillExecutes) {
  // The instruction span must stay valid across moves (arena-resident).
  auto program = vm::compile(wrap({Stmt::assign({"icmp", "type"},
                                                Expr::constant(0))}));
  ASSERT_TRUE(program.has_value());
  const vm::Program moved = std::move(*program);
  const auto request = echo_request();
  auto env = SchemaExecEnv::icmp(request, net::IpAddr(10, 0, 1, 1));
  EXPECT_TRUE(vm::execute(moved, env).ok);
  EXPECT_EQ(env.out_icmp().type, net::IcmpType::kEchoReply);
}

TEST(VmProgram, OpNamesCoverTheWholeTable) {
  for (std::size_t i = 0; i < vm::kNumOps; ++i) {
    const char* name = vm::op_name(static_cast<vm::Op>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_EQ(name[0], 'k') << i;
  }
}

TEST(VmExec, BindingMismatchFailsCleanly) {
  // An ICMP program must refuse an IGMP env — failed result, never UB.
  const auto program = vm::compile(wrap({Stmt::assign({"icmp", "type"},
                                                      Expr::constant(0))}));
  ASSERT_TRUE(program.has_value());
  auto env = SchemaExecEnv::igmp(net::IpAddr(10, 0, 1, 100),
                                 net::IpAddr(224, 1, 2, 3));
  const ExecResult result = vm::execute(*program, env);
  EXPECT_FALSE(result.ok);
  ASSERT_FALSE(result.errors.empty());
  EXPECT_NE(result.errors[0].find("protocol mismatch"), std::string::npos);
}

TEST(VmExec, OpCountersCountOnlyWhenEnabled) {
  const auto program = vm::compile(wrap({Stmt::assign({"icmp", "type"},
                                                      Expr::constant(0))}));
  ASSERT_TRUE(program.has_value());
  const auto request = echo_request();

  vm::reset_op_counts();
  {
    auto env = SchemaExecEnv::icmp(request, net::IpAddr(10, 0, 1, 1));
    vm::execute(*program, env);
  }
  for (const auto count : vm::op_counts()) EXPECT_EQ(count, 0u);

  vm::set_op_counting(true);
  {
    auto env = SchemaExecEnv::icmp(request, net::IpAddr(10, 0, 1, 1));
    vm::execute(*program, env);
  }
  vm::set_op_counting(false);
  const auto counts = vm::op_counts();
  EXPECT_EQ(counts[static_cast<std::size_t>(vm::Op::kHalt)], 1u);
  // The const-store pair fuses into a single superinstruction.
  EXPECT_EQ(counts[static_cast<std::size_t>(vm::Op::kStoreWireConst)], 1u);
  EXPECT_EQ(counts[static_cast<std::size_t>(vm::Op::kPushConst)], 0u);
  EXPECT_EQ(counts[static_cast<std::size_t>(vm::Op::kStoreWire)], 0u);
  vm::reset_op_counts();
  for (const auto count : vm::op_counts()) EXPECT_EQ(count, 0u);
}

TEST(VmExec, ExecStatsTrackBothBackends) {
  // reverse_addresses specializes to a flat-path op; the scalar call
  // keeps one genuinely slow entry in the program.
  const auto fn = wrap(
      {Stmt::assign({"icmp", "type"}, Expr::constant(0)),
       Stmt::call("reverse_addresses"),
       Stmt::assign({"icmp", "checksum"}, Expr::call("ones_complement_sum"))});
  const auto request = echo_request();

  codegen::reset_exec_stats();
  const auto program = vm::compile(fn);
  ASSERT_TRUE(program.has_value());
  auto after_compile = codegen::exec_stats();
  EXPECT_EQ(after_compile.programs_compiled, 1u);
  EXPECT_GE(after_compile.program_bytes, program->program_bytes());
  EXPECT_EQ(after_compile.ops_executed, 0u);

  {
    auto env = SchemaExecEnv::icmp(request, net::IpAddr(10, 0, 1, 1));
    vm::execute(*program, env);
  }
  const auto after_vm = codegen::exec_stats();
  EXPECT_GE(after_vm.ops_executed, 3u);  // store, effect, call, store, halt
  EXPECT_GE(after_vm.slow_path_entries, 1u);  // the scalar call
  EXPECT_EQ(after_vm.tree_stmts_executed, 0u);

  {
    auto env = SchemaExecEnv::icmp(request, net::IpAddr(10, 0, 1, 1));
    Interpreter().run(fn.body, env);
  }
  const auto after_tree = codegen::exec_stats();
  EXPECT_EQ(after_tree.ops_executed, after_vm.ops_executed);
  EXPECT_EQ(after_tree.tree_stmts_executed, 3u);
}

TEST(VmExec, HaveComputedGotoMatchesToolchain) {
#if defined(__GNUC__) || defined(__clang__)
  EXPECT_TRUE(vm::have_computed_goto());
#else
  EXPECT_FALSE(vm::have_computed_goto());
#endif
}

}  // namespace
}  // namespace sage::runtime
