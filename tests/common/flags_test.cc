#include "common/flags.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace sgcl {
namespace {

// Builds a mutable argv from string literals; index 0 is the program name
// and index 1 the subcommand, mirroring CLI usage (Parse starts at 2).
class Argv {
 public:
  explicit Argv(std::vector<std::string> args)
      : storage_(std::move(args)) {
    storage_.insert(storage_.begin(), {"prog", "cmd"});
    for (std::string& s : storage_) ptrs_.push_back(s.data());
  }
  int argc() { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> ptrs_;
};

TEST(FlagSetTest, ParsesTypedValues) {
  std::string name = "default";
  int epochs = 20;
  int64_t big = 0;
  uint64_t seed = 1;
  double lr = 0.1;
  bool verbose = false;
  FlagSet flags("test");
  flags.String("name", &name, "");
  flags.Int("epochs", &epochs, "");
  flags.Int64("big", &big, "");
  flags.Uint64("seed", &seed, "");
  flags.Double("lr", &lr, "");
  flags.Bool("verbose", &verbose, "");
  Argv args({"--name=x", "--epochs=7", "--big=-5000000000", "--seed=42",
             "--lr=2.5e-3", "--verbose"});
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv(), 2).ok());
  EXPECT_EQ(name, "x");
  EXPECT_EQ(epochs, 7);
  EXPECT_EQ(big, -5000000000LL);
  EXPECT_EQ(seed, 42u);
  EXPECT_DOUBLE_EQ(lr, 2.5e-3);
  EXPECT_TRUE(verbose);
  EXPECT_TRUE(flags.IsSet("epochs"));
}

TEST(FlagSetTest, KeepsDefaultsWhenUnset) {
  int epochs = 20;
  FlagSet flags("test");
  flags.Int("epochs", &epochs, "");
  Argv args({});
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv(), 2).ok());
  EXPECT_EQ(epochs, 20);
  EXPECT_FALSE(flags.IsSet("epochs"));
}

TEST(FlagSetTest, RejectsMalformedNumbers) {
  int epochs = 20;
  int64_t big = 0;
  uint64_t seed = 1;
  double rate = 0.5;
  FlagSet flags("test");
  flags.Int("epochs", &epochs, "");
  flags.Int64("big", &big, "");
  flags.Uint64("seed", &seed, "");
  flags.Double("rate", &rate, "");
  for (const char* bad : {"--epochs=abc", "--epochs=", "--epochs=3x",
                          "--epochs=1e3", "--epochs=99999999999999"}) {
    Argv args({bad});
    Status st = flags.Parse(args.argc(), args.argv(), 2);
    EXPECT_FALSE(st.ok()) << bad;
  }
  // strto* would skip the space, take the '+', and negate the '-' of an
  // unsigned value; strtod would read nan and inf.
  for (const char* bad :
       {"--epochs= 5", "--epochs=+5", "--big= -5", "--big=+5", "--seed=-1",
        "--seed= -1", "--seed=+1", "--seed=\t1", "--rate=nan", "--rate=NaN",
        "--rate=inf", "--rate=-inf", "--rate=infinity", "--rate= 0.5",
        "--rate=+0.5", "--rate=1e999"}) {
    Argv args({bad});
    Status st = flags.Parse(args.argc(), args.argv(), 2);
    EXPECT_FALSE(st.ok()) << bad;
  }
  EXPECT_EQ(epochs, 20);
  EXPECT_EQ(big, 0);
  EXPECT_EQ(seed, 1u);
  EXPECT_EQ(rate, 0.5);
  Argv good({"--big=-5000000000", "--seed=18446744073709551615",
             "--rate=2.5e-3"});
  ASSERT_TRUE(flags.Parse(good.argc(), good.argv(), 2).ok());
  EXPECT_EQ(big, -5000000000LL);
  EXPECT_EQ(seed, 18446744073709551615ULL);
  EXPECT_DOUBLE_EQ(rate, 2.5e-3);
  Argv thousand({"--rate=1e3"});
  ASSERT_TRUE(flags.Parse(thousand.argc(), thousand.argv(), 2).ok());
  EXPECT_DOUBLE_EQ(rate, 1e3);
}

TEST(FlagSetTest, RejectsUnknownFlagsAndPositionals) {
  int epochs = 20;
  FlagSet flags("test");
  flags.Int("epochs", &epochs, "");
  {
    Argv args({"--nope=1"});
    EXPECT_FALSE(flags.Parse(args.argc(), args.argv(), 2).ok());
  }
  {
    Argv args({"stray"});
    EXPECT_FALSE(flags.Parse(args.argc(), args.argv(), 2).ok());
  }
  {
    // Bare --epochs (no value) is only legal for bools.
    Argv args({"--epochs"});
    EXPECT_FALSE(flags.Parse(args.argc(), args.argv(), 2).ok());
  }
}

TEST(FlagSetTest, RequiredFlagMustBeSet) {
  std::string data;
  FlagSet flags("test");
  flags.String("data", &data, "", /*required=*/true);
  Argv empty({});
  EXPECT_FALSE(flags.Parse(empty.argc(), empty.argv(), 2).ok());
  FlagSet flags2("test");
  flags2.String("data", &data, "", /*required=*/true);
  Argv args({"--data=ds.bin"});
  EXPECT_TRUE(flags2.Parse(args.argc(), args.argv(), 2).ok());
  EXPECT_EQ(data, "ds.bin");
}

TEST(FlagSetTest, HelpShortCircuitsRequiredChecks) {
  std::string data;
  FlagSet flags("test");
  flags.String("data", &data, "dataset path", /*required=*/true);
  Argv args({"--help"});
  EXPECT_TRUE(flags.Parse(args.argc(), args.argv(), 2).ok());
  EXPECT_TRUE(flags.help_requested());
  const std::string help = flags.Help();
  EXPECT_NE(help.find("--data"), std::string::npos);
  EXPECT_NE(help.find("dataset path"), std::string::npos);
}

TEST(FlagSetTest, BoolForms) {
  bool flag = false;
  FlagSet flags("test");
  flags.Bool("flag", &flag, "");
  {
    Argv args({"--flag=true"});
    ASSERT_TRUE(flags.Parse(args.argc(), args.argv(), 2).ok());
    EXPECT_TRUE(flag);
  }
  {
    flag = true;
    Argv args({"--flag=false"});
    ASSERT_TRUE(flags.Parse(args.argc(), args.argv(), 2).ok());
    EXPECT_FALSE(flag);
  }
  {
    Argv args({"--flag=maybe"});
    EXPECT_FALSE(flags.Parse(args.argc(), args.argv(), 2).ok());
  }
}

}  // namespace
}  // namespace sgcl
