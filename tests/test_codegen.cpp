// Tests for the code-generation layer: context dictionaries, predicate
// handlers, the C emitter, and function assembly (advice processing,
// role separation, non-actionable discovery).
#include <gtest/gtest.h>

#include "codegen/context.hpp"
#include "codegen/emitter.hpp"
#include "codegen/generator.hpp"
#include "codegen/handlers.hpp"
#include "lf/logical_form.hpp"

namespace sage::codegen {
namespace {

lf::LogicalForm parse(const std::string& text) {
  auto form = lf::parse_logical_form(text);
  EXPECT_TRUE(form.has_value()) << text;
  return *form;
}

class ConverterTest : public ::testing::Test {
 protected:
  ConverterTest()
      : statics_(StaticContext::standard()),
        registry_(HandlerRegistry::standard()) {}

  LfConverter make_converter(const std::string& protocol,
                             const std::string& message,
                             const std::string& field,
                             const std::string& role = "") {
    DynamicContext dynamic;
    dynamic.protocol = protocol;
    dynamic.message = message;
    dynamic.field = field;
    dynamic.role = role;
    resolution_ = std::make_unique<ResolutionContext>(dynamic, &statics_);
    return LfConverter(resolution_.get(), &registry_);
  }

  StaticContext statics_;
  HandlerRegistry registry_;
  std::unique_ptr<ResolutionContext> resolution_;
};

// ---- context resolution ----------------------------------------------------

TEST_F(ConverterTest, DynamicContextResolvesDescribedField) {
  DynamicContext dynamic;
  dynamic.protocol = "ICMP";
  dynamic.field = "Sequence Number";
  const ResolutionContext ctx(dynamic, &statics_);
  const auto ref = ctx.resolve_field("");
  ASSERT_TRUE(ref.has_value());
  EXPECT_EQ(ref->layer, "icmp");
  EXPECT_EQ(ref->field, "sequence_number");
}

TEST_F(ConverterTest, StaticContextLayerPreference) {
  // "originate timestamp" exists in both ICMP and NTP; the sentence's
  // protocol decides.
  DynamicContext icmp_ctx;
  icmp_ctx.protocol = "ICMP";
  const ResolutionContext icmp(icmp_ctx, &statics_);
  EXPECT_EQ(icmp.resolve_field("originate timestamp")->layer, "icmp");

  DynamicContext ntp_ctx;
  ntp_ctx.protocol = "NTP";
  const ResolutionContext ntp(ntp_ctx, &statics_);
  EXPECT_EQ(ntp.resolve_field("originate timestamp")->layer, "ntp");
}

TEST_F(ConverterTest, UnknownPhraseFailsResolution) {
  DynamicContext dynamic;
  dynamic.protocol = "ICMP";
  const ResolutionContext ctx(dynamic, &statics_);
  EXPECT_FALSE(ctx.resolve_field("flux capacitor").has_value());
}

TEST_F(ConverterTest, FunctionResolution) {
  DynamicContext dynamic;
  dynamic.protocol = "ICMP";
  const ResolutionContext ctx(dynamic, &statics_);
  EXPECT_EQ(*ctx.resolve_function("one's complement sum"),
            "ones_complement_sum");
  EXPECT_EQ(*ctx.resolve_function("reversed"), "reverse_addresses");
  EXPECT_FALSE(ctx.resolve_function("teleport").has_value());
}

// ---- handlers ---------------------------------------------------------------

TEST_F(ConverterTest, Table4Example) {
  auto conv = make_converter("ICMP", "Destination Unreachable Message", "Type");
  const auto stmt = conv.to_stmt(parse("@Is(\"type\", @Num(3))"));
  ASSERT_TRUE(stmt.has_value());
  EXPECT_EQ(emit_stmt(*stmt), "out->icmp.type = 3;\n");
}

TEST_F(ConverterTest, BareNumberAssignsDescribedField) {
  auto conv = make_converter("ICMP", "Time Exceeded Message", "Type");
  const auto stmt = conv.to_stmt(lf::LfNode::num(11));
  ASSERT_TRUE(stmt.has_value());
  EXPECT_EQ(emit_stmt(*stmt), "out->icmp.type = 11;\n");
}

TEST_F(ConverterTest, ChecksumDescriptionCompilesToDeferredCompute) {
  auto conv = make_converter("ICMP", "Echo or Echo Reply Message", "Checksum");
  // The corpus shape: "the 16-bit one's complement of the one's
  // complement sum of the ICMP message" is an @Of chain.
  const auto stmt = conv.to_stmt(parse(
      "@Is(\"checksum\", @Of(\"16-bit one's complement\", "
      "@Of(\"one's complement sum\", \"icmp message\")))"));
  // The handler reroutes ones-complement assignments to the framework's
  // deferred checksum computation.
  ASSERT_TRUE(stmt.has_value());
  EXPECT_EQ(stmt->kind, Stmt::Kind::kCall);
  EXPECT_EQ(stmt->fn, "compute_checksum");
}

TEST_F(ConverterTest, IfStatementWithConditionAndBody) {
  auto conv = make_converter("ICMP", "Parameter Problem Message", "Pointer");
  const auto stmt = conv.to_stmt(
      parse("@If(@Is(\"code\", @Num(0)), @Is(\"pointer\", @Num(1)))"));
  ASSERT_TRUE(stmt.has_value());
  const std::string code = emit_stmt(*stmt);
  EXPECT_NE(code.find("if (in->icmp.code == 0)"), std::string::npos);
  EXPECT_NE(code.find("out->icmp.pointer = 1;"), std::string::npos);
}

TEST_F(ConverterTest, CaseGeneratesScenarioGuard) {
  auto conv = make_converter("ICMP", "Destination Unreachable Message", "Code");
  const auto stmt =
      conv.to_stmt(parse("@Case(@Num(3), \"port unreachable\")"));
  ASSERT_TRUE(stmt.has_value());
  const std::string code = emit_stmt(*stmt);
  EXPECT_NE(code.find("scenario == port_unreachable"), std::string::npos);
  EXPECT_NE(code.find("out->icmp.code = 3;"), std::string::npos);
}

TEST_F(ConverterTest, MayIsSenderOnly) {
  auto sender = make_converter("ICMP", "Echo or Echo Reply Message",
                               "Identifier", "sender");
  const auto lf = parse("@May(@Is(\"identifier\", @Num(0)))");
  const auto sender_stmt = sender.to_stmt(lf);
  ASSERT_TRUE(sender_stmt.has_value());
  EXPECT_EQ(sender_stmt->kind, Stmt::Kind::kAssign);

  auto receiver = make_converter("ICMP", "Echo or Echo Reply Message",
                                 "Identifier", "receiver");
  const auto receiver_stmt = receiver.to_stmt(lf);
  ASSERT_TRUE(receiver_stmt.has_value());
  EXPECT_EQ(receiver_stmt->kind, Stmt::Kind::kComment);
}

TEST_F(ConverterTest, UnknownFieldReportsDiagnostic) {
  auto conv = make_converter("ICMP", "Echo or Echo Reply Message", "");
  const auto stmt = conv.to_stmt(parse("@Is(\"warp drive\", @Num(1))"));
  EXPECT_FALSE(stmt.has_value());
  EXPECT_FALSE(conv.errors().empty());
}

TEST_F(ConverterTest, ExcerptIdiom) {
  auto conv = make_converter("ICMP", "Destination Unreachable Message",
                             "Internet Header + 64 bits of Data Datagram");
  const auto stmt = conv.to_stmt(parse(
      "@Is(\"internet header + 64 bits of data datagram\", "
      "@And(\"internet header\", \"first 64 bits of the original "
      "datagram's data\"))"));
  ASSERT_TRUE(stmt.has_value());
  EXPECT_EQ(stmt->value.kind, Expr::Kind::kCall);
  EXPECT_EQ(stmt->value.name, "original_datagram_excerpt");
}

TEST_F(ConverterTest, BfdVariableAssignment) {
  auto conv = make_converter("BFD", "BFD Control Packet", "");
  const auto stmt = conv.to_stmt(
      parse("@Is(\"bfd.remotediscr\", \"my discriminator field\")"));
  ASSERT_TRUE(stmt.has_value());
  EXPECT_EQ(stmt->kind, Stmt::Kind::kAssign);
  EXPECT_EQ(stmt->target.field, "remote_discr");
  EXPECT_EQ(stmt->value.field.field, "my_discriminator");
}

TEST_F(ConverterTest, HandlerCountsMatchPaper) {
  EXPECT_EQ(registry_.count_by_source("icmp"), 25u);
  EXPECT_EQ(registry_.count_by_source("igmp"), 4u);
  EXPECT_EQ(registry_.count_by_source("bfd"), 8u);
}

// ---- emitter ------------------------------------------------------------------

TEST(Emitter, ExprForms) {
  EXPECT_EQ(emit_expr(Expr::constant(7)), "7");
  EXPECT_EQ(emit_expr(Expr::field_read({"ip", "src"})), "in->ip.src");
  EXPECT_EQ(emit_expr(Expr::call("f", {Expr::constant(1), Expr::constant(2)})),
            "f(1, 2)");
  EXPECT_EQ(emit_expr(Expr::symbol("net unreachable")), "net_unreachable");
}

TEST(Emitter, CondForms) {
  const auto c = Cond::conj(
      {Cond::compare(Expr::constant(1), CmpOp::kEq, Expr::constant(1)),
       Cond::negate(Cond::compare(Expr::constant(2), CmpOp::kGt,
                                  Expr::constant(3)))});
  EXPECT_EQ(emit_cond(c), "(1 == 1) && (!(2 > 3))");
}

TEST(Emitter, NestedStatements) {
  Stmt inner = Stmt::assign({"icmp", "type"}, Expr::constant(0));
  Stmt outer = Stmt::if_then(
      Cond::compare(Expr::constant(1), CmpOp::kNe, Expr::constant(0)),
      {Stmt::seq({inner, Stmt::comment("done")})});
  const std::string code = emit_stmt(outer);
  EXPECT_NE(code.find("if (1 != 0) {"), std::string::npos);
  EXPECT_NE(code.find("    out->icmp.type = 0;"), std::string::npos);
  EXPECT_NE(code.find("/* done */"), std::string::npos);
}

// ---- generator -------------------------------------------------------------------

TEST(Generator, FunctionNaming) {
  EXPECT_EQ(CodeGenerator::function_name(
                "ICMP", "Destination Unreachable Message", "sender"),
            "icmp_destination_unreachable_sender");
  EXPECT_EQ(CodeGenerator::function_name("ICMP",
                                         "Echo or Echo Reply Message",
                                         "receiver"),
            "icmp_echo_or_echo_reply_receiver");
}

TEST(Generator, AdviceHoistedBeforeChecksumCall) {
  const StaticContext statics = StaticContext::standard();
  const HandlerRegistry registry = HandlerRegistry::standard();
  const CodeGenerator generator(&statics, &registry);

  DynamicContext ctx;
  ctx.protocol = "ICMP";
  ctx.message = "Echo or Echo Reply Message";
  ctx.field = "Checksum";

  std::vector<SentenceLf> sentences;
  {  // the checksum description compiles to the deferred compute call
    SentenceLf s;
    s.form = lf::LfNode::predicate(
        std::string(lf::pred::kCompute), {lf::LfNode::str("checksum")});
    s.context = ctx;
    s.sentence = "The checksum is ...";
    sentences.push_back(s);
  }
  {  // the advice occurs AFTER in document order
    SentenceLf s;
    s.form = *lf::parse_logical_form(
        "@AdvBefore(@Action(\"compute\", \"checksum\"), "
        "@Is(\"checksum field\", @Num(0)))");
    s.context = ctx;
    s.sentence = "For computing the checksum, the checksum field should be "
                 "zero.";
    sentences.push_back(s);
  }

  const auto outcome = generator.generate(
      "ICMP", "Echo or Echo Reply Message", "receiver", sentences);
  ASSERT_TRUE(outcome.function.has_value());
  const std::string code = outcome.function->c_source;
  const auto zero_pos = code.find("out->icmp.checksum = 0;");
  const auto compute_pos = code.find("compute_checksum();");
  ASSERT_NE(zero_pos, std::string::npos);
  ASSERT_NE(compute_pos, std::string::npos);
  EXPECT_LT(zero_pos, compute_pos) << code;
}

TEST(Generator, AdvCommentBecomesComment) {
  const StaticContext statics = StaticContext::standard();
  const HandlerRegistry registry = HandlerRegistry::standard();
  const CodeGenerator generator(&statics, &registry);

  SentenceLf s;
  s.form = lf::LfNode::predicate(std::string(lf::pred::kAdvComment),
                                 {lf::LfNode::str("future work")});
  s.context.protocol = "ICMP";
  s.sentence = "This checksum may be replaced in the future.";
  const auto outcome =
      generator.generate("ICMP", "Echo or Echo Reply Message", "sender",
                         {&s, 1});
  ASSERT_TRUE(outcome.function.has_value());
  EXPECT_EQ(outcome.function->body.executable_count(), 0u);
  EXPECT_NE(outcome.function->c_source.find("/*"), std::string::npos);
}

TEST(Generator, FailedSentenceReported) {
  const StaticContext statics = StaticContext::standard();
  const HandlerRegistry registry = HandlerRegistry::standard();
  const CodeGenerator generator(&statics, &registry);

  SentenceLf s;
  s.form = *lf::parse_logical_form("@May(@Action(\"use\", \"identifier\"))");
  s.context.protocol = "ICMP";
  s.sentence = "The identifier may be used ...";
  const auto outcome = generator.generate(
      "ICMP", "Echo or Echo Reply Message", "sender", {&s, 1});
  ASSERT_EQ(outcome.failed_sentences.size(), 1u);
  EXPECT_EQ(outcome.failed_sentences[0], s.sentence);
  ASSERT_EQ(outcome.diagnostics.size(), 1u);
}

TEST(Generator, UnresolvedFieldFailsItsSentence) {
  const StaticContext statics = StaticContext::standard();
  const HandlerRegistry registry = HandlerRegistry::standard();
  const CodeGenerator generator(&statics, &registry);

  // A bare number assigns the field the sentence describes; the dynamic
  // context names a field the packet-schema registry does not have, so
  // the sentence fails exactly like a form that does not convert.
  SentenceLf s;
  s.form = lf::LfNode::num(7);
  s.context.protocol = "ICMP";
  s.context.field = "Frobnicator";
  s.sentence = "The frobnicator is 7.";
  const auto outcome = generator.generate(
      "ICMP", "Echo or Echo Reply Message", "sender", {&s, 1});
  ASSERT_EQ(outcome.failed_sentences.size(), 1u);
  EXPECT_EQ(outcome.failed_sentences[0], s.sentence);
  ASSERT_EQ(outcome.diagnostics.size(), 1u);
  EXPECT_EQ(outcome.diagnostics[0], "unresolved field icmp.frobnicator");
  ASSERT_TRUE(outcome.function.has_value());
  EXPECT_EQ(outcome.function->body.executable_count(), 0u);
  EXPECT_EQ(outcome.function->c_source.find("frobnicator"), std::string::npos);
}

TEST(Stmt, ExecutableCount) {
  Stmt s = Stmt::seq({Stmt::assign({"a", "b"}, Expr::constant(1)),
                      Stmt::comment("x"),
                      Stmt::if_then(Cond::always(),
                                    {Stmt::call("f"), Stmt::comment("y")})});
  EXPECT_EQ(s.executable_count(), 3u);  // assign + if + call
}

}  // namespace
}  // namespace sage::codegen
