#include "eval/artifact.h"

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "config/param_map.h"
#include "datasets/synthetic.h"
#include "eval/registry.h"
#include "gtest/gtest.h"
#include "serialize/serialization.h"

namespace tgsim::eval {
namespace {

std::string Sanitize(const std::string& name) {
  std::string out = name;
  for (char& c : out)
    if (!isalnum(static_cast<unsigned char>(c))) c = '_';
  return out;
}

std::string ArtifactPath(const std::string& tag) {
  return std::string(::testing::TempDir()) + "/tgsim_artifact_" +
         Sanitize(tag) + ".tgsim";
}

void ExpectGraphsIdentical(const graphs::TemporalGraph& a,
                           const graphs::TemporalGraph& b,
                           const std::string& label) {
  EXPECT_EQ(a.num_nodes(), b.num_nodes()) << label;
  EXPECT_EQ(a.num_timestamps(), b.num_timestamps()) << label;
  ASSERT_EQ(a.num_edges(), b.num_edges()) << label;
  for (size_t i = 0; i < a.edges().size(); ++i)
    ASSERT_TRUE(a.edges()[i] == b.edges()[i])
        << label << ": edge " << i << " differs";
}

/// Fits `method` with the fast preset, destroys the training graph, saves
/// an artifact, reloads it, and pins that the loaded generator draws a
/// bit-identical graph — the acceptance contract of the artifact format.
void RoundTripMethod(const std::string& method) {
  config::ParamMap params;
  params.Override("preset", "fast");
  auto built = MakeGenerator(method, params);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  std::unique_ptr<baselines::TemporalGraphGenerator> fitted =
      std::move(built).value();

  // The observed graph lives only for the Fit call: everything after this
  // block — generation, saving, loading — must work without the training
  // data (the artifact's no-training-data-needed rule).
  {
    auto observed = std::make_unique<graphs::TemporalGraph>(
        datasets::MakeMimicByName("DBLP", 0.03, 21));
    Rng fit_rng(17);
    fitted->Fit(*observed, fit_rng);
  }

  std::string path = ArtifactPath(method);
  Status saved = SaveArtifact(*fitted, method, params, path);
  ASSERT_TRUE(saved.ok()) << saved.ToString();

  Result<LoadedArtifact> loaded = LoadArtifact(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().method, method);
  EXPECT_EQ(loaded.value().params.ToString(), params.ToString());

  Rng gen_a(99), gen_b(99);
  graphs::TemporalGraph a = fitted->Generate(gen_a);
  graphs::TemporalGraph b = loaded.value().generator->Generate(gen_b);
  ExpectGraphsIdentical(a, b, method);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Round trip over every registered main-table method.
// ---------------------------------------------------------------------------

class ArtifactRoundTripTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ArtifactRoundTripTest, LoadedGeneratorIsBitIdenticalWithoutData) {
  RoundTripMethod(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, ArtifactRoundTripTest,
    ::testing::ValuesIn(AllMethodNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return Sanitize(info.param);
    });

TEST(ArtifactAblationTest, TgaeAblationVariantsRoundTripToo) {
  // The ablation registrations share TgaeGenerator; pin one per family
  // knob (non-probabilistic decoder, chain ego-graphs).
  RoundTripMethod("TGAE-p");
  RoundTripMethod("TGAE-g");
}

// ---------------------------------------------------------------------------
// Error paths: every failure is a Status, never a crash.
// ---------------------------------------------------------------------------

TEST(ArtifactErrorTest, SaveBeforeFitIsInvalidArgument) {
  auto gen = std::move(MakeGenerator("E-R")).value();
  std::string path = ArtifactPath("unfitted");
  Status s = SaveArtifact(*gen, "E-R", {}, path);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("Fit()"), std::string::npos) << s.ToString();
  // A failed save must not leave a half-written artifact (the descriptor
  // is written before the state error surfaces).
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(ArtifactTest, ParamValuesWithWhitespaceRoundTrip) {
  // Overlay entries are stored as length-prefixed key/value bytes, one
  // field per entry — a value with whitespace (legal: ParamMap getters
  // trim before parsing) must survive the round trip. Regression: a
  // joined-and-resplit rendering saved fine and failed at load.
  config::ParamMap params;
  params.Override("preset", "fast");
  params.Override("epochs", " 1 ");
  params.Override("walks_per_epoch", "10");
  auto built = MakeGenerator("TIGGER", params);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto gen = std::move(built).value();
  {
    graphs::TemporalGraph observed =
        datasets::MakeMimicByName("DBLP", 0.03, 5);
    Rng rng(3);
    gen->Fit(observed, rng);
  }
  std::string path = ArtifactPath("whitespace_params");
  ASSERT_TRUE(SaveArtifact(*gen, "TIGGER", params, path).ok());
  Result<LoadedArtifact> loaded = LoadArtifact(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_NE(loaded.value().params.FindRaw("epochs"), nullptr);
  EXPECT_EQ(*loaded.value().params.FindRaw("epochs"), " 1 ");
  Rng gen_a(4), gen_b(4);
  graphs::TemporalGraph a = gen->Generate(gen_a);
  graphs::TemporalGraph b = loaded.value().generator->Generate(gen_b);
  ExpectGraphsIdentical(a, b, "TIGGER whitespace params");
  std::filesystem::remove(path);
}

TEST(ArtifactErrorTest, SaveUnknownMethodIsNotFoundWithSuggestion) {
  auto gen = std::move(MakeGenerator("E-R")).value();
  Status s = SaveArtifact(*gen, "E-Q", {}, ArtifactPath("unknown_save"));
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_NE(s.message().find("E-R"), std::string::npos) << s.ToString();
}

TEST(ArtifactErrorTest, LoadMissingFileIsIoError) {
  EXPECT_EQ(LoadArtifact("/nonexistent/model.tgsim").status().code(),
            StatusCode::kIoError);
}

TEST(ArtifactErrorTest, LoadBadMagicIsInvalidArgument) {
  std::string path = ArtifactPath("bad_magic");
  std::ofstream(path) << "definitely not an artifact\n";
  Status s = LoadArtifact(path).status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  std::filesystem::remove(path);
}

TEST(ArtifactErrorTest, LoadWrongArchiveVersionNamesBothVersions) {
  std::string path = ArtifactPath("bad_version");
  std::ofstream(path) << "tgsim-archive 999\nend\n";
  Status s = LoadArtifact(path).status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("999"), std::string::npos) << s.ToString();
  std::filesystem::remove(path);
}

TEST(ArtifactErrorTest, LoadWrongArtifactVersionIsInvalidArgument) {
  std::string path = ArtifactPath("bad_artifact_version");
  {
    std::ofstream out(path);
    serialize::ArchiveWriter writer(out);
    writer.BeginSection("artifact");
    writer.WriteInt("artifact_version", 999);
    writer.WriteString("method", "E-R");
    writer.WriteInt("param_count", 0);
    ASSERT_TRUE(writer.Finish().ok());
  }
  Status s = LoadArtifact(path).status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("artifact version 999"), std::string::npos)
      << s.ToString();
  std::filesystem::remove(path);
}

TEST(ArtifactErrorTest, LoadUnknownMethodIsNotFoundWithSuggestion) {
  std::string path = ArtifactPath("unknown_method");
  {
    std::ofstream out(path);
    serialize::ArchiveWriter writer(out);
    writer.BeginSection("artifact");
    writer.WriteInt("artifact_version", kArtifactVersion);
    writer.WriteString("method", "TGAF");
    writer.WriteInt("base_fit_seed", 0);
    writer.WriteInt("update_count", 0);
    writer.WriteInt("update_epochs", 0);
    writer.WriteInt("param_count", 0);
    ASSERT_TRUE(writer.Finish().ok());
  }
  Status s = LoadArtifact(path).status();
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_NE(s.message().find("TGAE"), std::string::npos) << s.ToString();
  std::filesystem::remove(path);
}

TEST(ArtifactErrorTest, LoadTruncatedArtifactIsAnErrorNotACrash) {
  // A real fitted artifact cut off mid-state must fail cleanly.
  auto gen = std::move(MakeGenerator("DYMOND")).value();
  {
    graphs::TemporalGraph observed =
        datasets::MakeMimicByName("DBLP", 0.03, 5);
    Rng rng(3);
    gen->Fit(observed, rng);
  }
  std::string path = ArtifactPath("truncated");
  ASSERT_TRUE(SaveArtifact(*gen, "DYMOND", {}, path).ok());
  auto size = std::filesystem::file_size(path);
  ASSERT_GT(size, 64u);
  std::filesystem::resize_file(path, size / 2);
  Status s = LoadArtifact(path).status();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  std::filesystem::remove(path);
}

/// Fits `method` on a small DBLP mimic, saves it as an artifact at `path`
/// and returns the fitted generator.
std::unique_ptr<baselines::TemporalGraphGenerator> FitAndSave(
    const std::string& method, const config::ParamMap& params,
    const std::string& path) {
  auto gen = std::move(MakeGenerator(method, params)).value();
  {
    graphs::TemporalGraph observed =
        datasets::MakeMimicByName("DBLP", 0.03, 5);
    Rng rng(3);
    gen->Fit(observed, rng);
  }
  EXPECT_TRUE(SaveArtifact(*gen, method, params, path).ok());
  return gen;
}

std::string ReadText(const std::string& path) {
  std::ifstream in(path);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Saves a fitted `method` artifact, replaces the first value of the
/// vector field `field` with `value`, and returns the status of loading
/// it.
Status LoadWithEditedField(const std::string& method,
                           const config::ParamMap& params,
                           const std::string& field,
                           const std::string& value) {
  const std::string path = ArtifactPath(method + "_edited_" + field);
  FitAndSave(method, params, path);
  std::string text = ReadText(path);
  // Vector fields are written as `<kind> <name> <count> v0 v1 ...`.
  const size_t line = text.find(" " + field + " ");
  if (line == std::string::npos) return Status::NotFound("no field " + field);
  const size_t first = text.find(' ', line + field.size() + 2) + 1;
  const size_t end = text.find_first_of(" \n", first);
  text.replace(first, end - first, value);
  std::ofstream(path) << text;
  Status s = LoadArtifact(path).status();
  std::filesystem::remove(path);
  return s;
}

Status LoadDymondWithEditedField(const std::string& field,
                                 const std::string& value) {
  return LoadWithEditedField("DYMOND", {}, field, value);
}

config::ParamMap FastPreset() {
  config::ParamMap params;
  params.Override("preset", "fast");
  return params;
}

TEST(ArtifactErrorTest, EditedDymondMotifCountIsRejectedBeforeGenerating) {
  // An inflated count used to make Generate place a billion motifs.
  Status s = LoadDymondWithEditedField("singles", "999999999");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.message().find("do not add up"), std::string::npos)
      << s.ToString();
  s = LoadDymondWithEditedField("wedges", "-1");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.message().find("negative"), std::string::npos) << s.ToString();
}

TEST(ArtifactErrorTest, DymondActivityMustBeFiniteAndPositive) {
  for (const char* weight : {"nan", "inf", "0", "-2.5"}) {
    Status s = LoadDymondWithEditedField("node_activity", weight);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument)
        << weight << ": " << s.ToString();
    EXPECT_NE(s.message().find("node activity"), std::string::npos)
        << weight << ": " << s.ToString();
  }
}

TEST(ArtifactErrorTest, TiggerStartWeightsMustBeFiniteAndNonNegative) {
  // The start sampler's alias table is rebuilt from these weights, so an
  // inf weight would flatten it instead of failing the load.
  for (const char* weight : {"inf", "nan", "-1"}) {
    Status s = LoadWithEditedField("TIGGER", FastPreset(), "weight", weight);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument)
        << weight << ": " << s.ToString();
    EXPECT_NE(s.message().find("start weight"), std::string::npos)
        << weight << ": " << s.ToString();
  }
}

/// Artifacts written before alias tables were derived on load also carry
/// the table itself, as `<prefix>_prob` / `<prefix>_alias` right after
/// its weights. Loading must ignore those fields: here they hold a valid
/// but different table (every slot keeps its own index, so draws would be
/// uniform), and generation must still match the fitted original.
void ExpectStoredAliasTableIsIgnored(const std::string& method,
                                     const config::ParamMap& params,
                                     const std::string& weights_field,
                                     const std::string& prefix) {
  const std::string path = ArtifactPath(method + "_stored_alias");
  auto fitted = FitAndSave(method, params, path);
  std::string text = ReadText(path);
  ASSERT_EQ(text.find(prefix + "_prob"), std::string::npos)
      << "derived alias table is still written";
  const size_t line = text.find(" " + weights_field + " ");
  ASSERT_NE(line, std::string::npos);
  const size_t count_at = line + weights_field.size() + 2;
  const int64_t n = std::stoll(text.substr(count_at, 20));
  ASSERT_GT(n, 1);
  std::string prob = "vf64 " + prefix + "_prob " + std::to_string(n);
  std::string alias = "vi64 " + prefix + "_alias " + std::to_string(n);
  for (int64_t i = 0; i < n; ++i) {
    prob += " 1";
    alias += ' ';
    alias += std::to_string(i);
  }
  text.insert(text.find('\n', line) + 1, prob + "\n" + alias + "\n");
  std::ofstream(path) << text;

  Result<LoadedArtifact> loaded = LoadArtifact(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Rng gen_a(99), gen_b(99);
  graphs::TemporalGraph a = fitted->Generate(gen_a);
  graphs::TemporalGraph b = loaded.value().generator->Generate(gen_b);
  ExpectGraphsIdentical(a, b, method);
  std::filesystem::remove(path);
}

TEST(ArtifactCompatTest, TiggerStoredStartAliasTableIsIgnored) {
  ExpectStoredAliasTableIsIgnored("TIGGER", FastPreset(), "weight",
                                  "starts");
}

TEST(ArtifactCompatTest, DymondStoredActivityAliasTableIsIgnored) {
  ExpectStoredAliasTableIsIgnored("DYMOND", {}, "node_activity", "activity");
}

/// Fits a score-matrix method whose fast-preset state is large enough to
/// ride as a trailing BlockFile, saves it, and returns the path.
std::string SaveBlockBackedArtifact(const std::string& tag) {
  config::ParamMap params;
  params.Override("preset", "fast");
  auto gen = std::move(MakeGenerator("NetGAN", params)).value();
  {
    graphs::TemporalGraph observed =
        datasets::MakeMimicByName("DBLP", 0.03, 5);
    Rng rng(3);
    gen->Fit(observed, rng);
  }
  std::string path = ArtifactPath(tag);
  EXPECT_TRUE(SaveArtifact(*gen, "NetGAN", params, path).ok());
  // The artifact really holds a block container (the corruption tests
  // below poke at its region).
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  EXPECT_NE(bytes.find("tgsimblk"), std::string::npos);
  return path;
}

TEST(ArtifactErrorTest, TruncatedBlockPayloadIsAnErrorNotACrash) {
  std::string path = SaveBlockBackedArtifact("block_truncated");
  auto size = std::filesystem::file_size(path);
  ASSERT_GT(size, 256u);
  std::filesystem::resize_file(path, size - 128);
  Status s = LoadArtifact(path).status();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  std::filesystem::remove(path);
}

TEST(ArtifactErrorTest, FlippedBlockByteFailsTheChecksum) {
  std::string path = SaveBlockBackedArtifact("block_flipped");
  {
    std::fstream file(path,
                      std::ios::binary | std::ios::in | std::ios::out);
    std::string bytes((std::istreambuf_iterator<char>(file)),
                      std::istreambuf_iterator<char>());
    // First byte of the first block: the first 8-aligned absolute offset
    // past the container's 16-byte header.
    const size_t base = bytes.find("tgsimblk");
    ASSERT_NE(base, std::string::npos);
    const size_t first_block = (base + 16 + 7) / 8 * 8;
    file.clear();
    file.seekp(static_cast<std::streamoff>(first_block));
    char flipped = static_cast<char>(bytes[first_block] ^ 0x4);
    file.write(&flipped, 1);
  }
  Status s = LoadArtifact(path).status();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.message().find("checksum"), std::string::npos) << s.ToString();
  std::filesystem::remove(path);
}

TEST(ArtifactErrorTest, WrongBlockContainerVersionIsInvalidArgument) {
  std::string path = SaveBlockBackedArtifact("block_version");
  {
    std::fstream file(path,
                      std::ios::binary | std::ios::in | std::ios::out);
    std::string bytes((std::istreambuf_iterator<char>(file)),
                      std::istreambuf_iterator<char>());
    const size_t base = bytes.find("tgsimblk");
    ASSERT_NE(base, std::string::npos);
    const int64_t version = 99;
    file.clear();
    file.seekp(static_cast<std::streamoff>(base + 8));
    file.write(reinterpret_cast<const char*>(&version), sizeof(version));
  }
  Status s = LoadArtifact(path).status();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.message().find("version"), std::string::npos) << s.ToString();
  std::filesystem::remove(path);
}

TEST(ArtifactErrorTest, DefaultSaveStateIsInvalidArgument) {
  // Custom registrations without persistence keep constructing and
  // running; only the artifact path reports Unimplemented-style errors.
  class NoStateGenerator : public baselines::TemporalGraphGenerator {
   public:
    std::string name() const override { return "custom"; }
    void Fit(const graphs::TemporalGraph&, Rng&) override {}
    graphs::TemporalGraph Generate(Rng&) override {
      graphs::TemporalGraph g(1, 1);
      g.Finalize();
      return g;
    }
  };
  NoStateGenerator gen;
  std::stringstream stream;
  EXPECT_EQ(gen.SaveState(stream).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(gen.LoadState(stream).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace tgsim::eval
