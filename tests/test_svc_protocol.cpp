// cfsd wire protocol robustness: frame decoding under split/merged/oversized
// input, the JSON parser's structured failure modes (depth bombs, bad
// escapes, trailing garbage), typed field access errors, and a deterministic
// mutation fuzz -- a thousand corruptions of a real request stream must
// surface as structured protocol errors, never as a crash or an
// uncontrolled exception type.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "svc/service.h"
#include "svc/wire.h"
#include "util/error.h"

namespace cfs {
namespace {

using svc::FrameDecoder;
using svc::JsonValue;
using svc::ProtocolError;
using svc::encode_frame;
using svc::json_parse;
using svc::kMaxFrameBytes;

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

/// The error code a callable fails with; "" if it does not throw.
template <typename Fn>
std::string error_code_of(Fn&& fn) {
  try {
    fn();
    return "";
  } catch (const ProtocolError& pe) {
    return pe.code();
  }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

TEST(WireFraming, RoundTripAndByteAtATimeReassembly) {
  const std::string a = "{\"op\":\"hello\"}";
  const std::string b = "{\"op\":\"stats\"}";
  const std::string stream = encode_frame(a) + encode_frame(b);

  FrameDecoder dec;
  std::vector<std::string> got;
  std::string out;
  for (char ch : stream) {
    dec.feed(&ch, 1);  // worst-case short reads
    while (dec.take(out)) got.push_back(out);
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], a);
  EXPECT_EQ(got[1], b);
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(WireFraming, EmptyPayloadIsAValidFrame) {
  FrameDecoder dec;
  const std::string f = encode_frame("");
  ASSERT_EQ(f.size(), 4u);
  dec.feed(f.data(), f.size());
  std::string out = "sentinel";
  ASSERT_TRUE(dec.take(out));
  EXPECT_EQ(out, "");
}

TEST(WireFraming, OversizedPrefixRejectedBeforeBuffering) {
  // 0xFFFFFFFF little-endian: far past kMaxFrameBytes.  The decoder must
  // throw as soon as the 4th header byte lands, without waiting for (or
  // allocating) 4 GiB of payload.
  FrameDecoder dec;
  const char bad[4] = {'\xff', '\xff', '\xff', '\xff'};
  dec.feed(bad, 3);
  std::string out;
  EXPECT_FALSE(dec.take(out));
  EXPECT_EQ(error_code_of([&] { dec.feed(bad + 3, 1); }), "frame_too_large");
}

TEST(WireFraming, OversizedSecondFrameDetectedOnTake) {
  // A valid frame followed by a poisoned prefix: the good payload is
  // extracted, and the poison is reported on that same take() call.
  const std::string good = encode_frame("{\"op\":\"hello\"}");
  const char bad[4] = {'\xff', '\xff', '\xff', '\x7f'};
  FrameDecoder dec;
  std::string stream = good + std::string(bad, 4);
  std::string out;
  EXPECT_EQ(error_code_of([&] {
              dec.feed(stream.data(), stream.size());
              (void)dec.take(out);
            }),
            "frame_too_large");
}

TEST(WireFraming, EncodeRejectsOversizedPayload) {
  std::string huge(static_cast<std::size_t>(kMaxFrameBytes) + 1, 'x');
  EXPECT_EQ(error_code_of([&] { (void)encode_frame(huge); }),
            "frame_too_large");
}

TEST(WireFraming, MaxSizedPrefixJustUnderCapIsBufferedNotRejected) {
  // A prefix exactly at the cap is legal; the decoder waits for payload.
  FrameDecoder dec;
  const std::uint32_t len = kMaxFrameBytes;
  char hdr[4];
  for (int i = 0; i < 4; ++i) {
    hdr[i] = static_cast<char>((len >> (8 * i)) & 0xff);
  }
  dec.feed(hdr, 4);
  std::string out;
  EXPECT_FALSE(dec.take(out));  // needs 8 MiB of payload, none arrived
}

// ---------------------------------------------------------------------------
// JSON parser
// ---------------------------------------------------------------------------

TEST(WireJson, ParsesTheProtocolVocabulary) {
  const JsonValue v = json_parse(
      "{\"op\":\"open\",\"threads\":4,\"reset0\":true,"
      "\"tags\":[1,2.5,null,\"x\"],\"nested\":{\"a\":-3}}");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.req_string("op"), "open");
  EXPECT_EQ(v.req_u64("threads"), 4u);
  EXPECT_TRUE(v.opt_bool("reset0", false));
  EXPECT_EQ(v.opt_u64("missing", 7), 7u);
  const JsonValue* tags = v.find("tags");
  ASSERT_NE(tags, nullptr);
  ASSERT_TRUE(tags->is_array());
  ASSERT_EQ(tags->as_array().size(), 4u);
  EXPECT_TRUE(tags->as_array()[2].is_null());
  EXPECT_DOUBLE_EQ(v.find("nested")->find("a")->as_number(), -3.0);
}

TEST(WireJson, DumpRoundTripsEscapesAndUnicode) {
  const std::string text =
      "{\"s\":\"a\\\"b\\\\c\\n\\t\\u00e9\",\"n\":42}";
  const JsonValue v = json_parse(text);
  // Round-trip through dump(): same value, stable shape.
  const JsonValue again = json_parse(v.dump());
  EXPECT_EQ(again.req_string("s"), v.req_string("s"));
  EXPECT_EQ(again.req_u64("n"), 42u);
  // \u00e9 decodes to two UTF-8 bytes.
  EXPECT_EQ(v.req_string("s").substr(7), "\xc3\xa9");
}

TEST(WireJson, StructuredFailureModes) {
  // Depth bomb: past kMaxJsonDepth nested arrays.
  std::string bomb;
  for (unsigned i = 0; i < svc::kMaxJsonDepth + 4; ++i) bomb += '[';
  EXPECT_EQ(error_code_of([&] { (void)json_parse(bomb); }), "bad_json");

  EXPECT_EQ(error_code_of([] { (void)json_parse("{\"a\":}"); }), "bad_json");
  EXPECT_EQ(error_code_of([] { (void)json_parse("\"\\q\""); }), "bad_json");
  EXPECT_EQ(error_code_of([] { (void)json_parse("{\"a\":1,}"); }), "bad_json");
  EXPECT_EQ(error_code_of([] { (void)json_parse(""); }), "bad_json");
  EXPECT_EQ(error_code_of([] { (void)json_parse("truth"); }), "bad_json");
  // Trailing garbage after a complete document is a framing-level problem.
  EXPECT_EQ(error_code_of([] { (void)json_parse("{} {}"); }), "bad_frame");
  EXPECT_EQ(error_code_of([] { (void)json_parse("1 2"); }), "bad_frame");
}

TEST(WireJson, TypedAccessorsRejectMismatches) {
  const JsonValue v = json_parse(
      "{\"s\":\"x\",\"neg\":-1,\"frac\":1.5,\"b\":true}");
  EXPECT_EQ(error_code_of([&] { (void)v.req_u64("s"); }), "bad_request");
  EXPECT_EQ(error_code_of([&] { (void)v.req_u64("neg"); }), "bad_request");
  EXPECT_EQ(error_code_of([&] { (void)v.req_u64("frac"); }), "bad_request");
  EXPECT_EQ(error_code_of([&] { (void)v.req_string("b"); }), "bad_request");
  EXPECT_EQ(error_code_of([&] { (void)v.req_string("absent"); }),
            "bad_request");
  EXPECT_EQ(error_code_of([&] { (void)v.as_array(); }), "bad_request");
}

// ---------------------------------------------------------------------------
// Service::handle structured errors (never throws, never aborts)
// ---------------------------------------------------------------------------

/// A Service that can never start real work: queue_depth 0 refuses every
/// fresh open with backpressure before any campaign machinery runs.  That
/// makes handle() safe to hammer with arbitrary payloads.
svc::ServiceConfig inert_config(const std::string& dir) {
  svc::ServiceConfig cfg;
  cfg.state_dir = dir;
  cfg.queue_depth = 0;
  cfg.queue_deadline_ms = 10;  // caps any wait a mutated request asks for
  return cfg;
}

TEST(SvcHandle, MalformedPayloadsComeBackAsStructuredErrors) {
  svc::Service s(inert_config(tmp_path("svc_proto_handle")));
  const auto code_of = [&](const std::string& payload) {
    const JsonValue r = json_parse(s.handle(payload));
    EXPECT_FALSE(r.find("ok")->as_bool());
    return r.req_string("error");
  };
  EXPECT_EQ(code_of("this is not json"), "bad_json");
  EXPECT_EQ(code_of("[1,2,3]"), "bad_request");
  EXPECT_EQ(code_of("{\"no_op\":1}"), "bad_request");
  EXPECT_EQ(code_of("{\"op\":\"frobnicate\"}"), "unknown_op");
  EXPECT_EQ(code_of("{\"op\":\"status\",\"session\":\"ghost\"}"),
            "unknown_session");
  EXPECT_EQ(code_of("{\"op\":\"open\",\"session\":\"..bad..name\","
                    "\"circuit\":\"\",\"tests\":\"\"}"),
            "bad_request");
  EXPECT_EQ(code_of("{\"op\":\"open\",\"session\":\"ok\",\"circuit\":\"c\","
                    "\"tests\":\"t\",\"mode\":\"warp\"}"),
            "bad_request");
  EXPECT_EQ(code_of("{\"op\":\"open\",\"session\":\"ok\",\"circuit\":\"c\","
                    "\"tests\":\"t\",\"threads\":65}"),
            "bad_request");
  // 2^32 + 1 threads is out of range, not 1 thread after narrowing.
  EXPECT_EQ(code_of("{\"op\":\"open\",\"session\":\"ok\",\"circuit\":\"c\","
                    "\"tests\":\"t\",\"threads\":4294967297}"),
            "bad_request");

  // Every one of those was counted, and the daemon still answers.
  const JsonValue stats = json_parse(s.handle("{\"op\":\"stats\"}"));
  ASSERT_TRUE(stats.find("ok")->as_bool());
  EXPECT_GE(stats.find("svc")->req_u64("protocol_errors"), 9u);
  const JsonValue hello = json_parse(s.handle("{\"op\":\"hello\"}"));
  EXPECT_TRUE(hello.find("ok")->as_bool());
}

// ---------------------------------------------------------------------------
// Deterministic mutation fuzz over the whole ingress path
// ---------------------------------------------------------------------------

// xorshift64* -- deterministic across platforms, no <random> distribution
// wobble (same idiom as test_parser_fuzz.cpp).
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return s * 0x2545F4914F6CDD1Dull;
  }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }
};

/// One random corruption of a byte stream: flip, insert, delete, truncate,
/// or duplicate a chunk.  Several are applied per round.
std::string mutate(const std::string& seed, Rng& rng) {
  std::string s = seed;
  const std::size_t edits = 1 + rng.below(4);
  for (std::size_t e = 0; e < edits && !s.empty(); ++e) {
    switch (rng.below(5)) {
      case 0:  // flip a byte
        s[rng.below(s.size())] = static_cast<char>(rng.next() & 0xff);
        break;
      case 1:  // insert a byte
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(rng.below(s.size())),
                 static_cast<char>(rng.next() & 0xff));
        break;
      case 2:  // delete a byte
        s.erase(s.begin() + static_cast<std::ptrdiff_t>(rng.below(s.size())));
        break;
      case 3:  // truncate
        s.resize(rng.below(s.size() + 1));
        break;
      default: {  // duplicate a chunk (duplicated/interleaved frames)
        const std::size_t at = rng.below(s.size());
        const std::size_t len = 1 + rng.below(s.size() - at);
        s.insert(at, s.substr(at, len));
        break;
      }
    }
  }
  return s;
}

TEST(SvcFuzz, MutatedRequestStreamsNeverCrashTheIngressPath) {
  svc::Service service(inert_config(tmp_path("svc_proto_fuzz")));

  // A realistic stream: hello, an open, a watch, a status, stats.
  const std::string seed_stream =
      encode_frame("{\"op\":\"hello\"}") +
      encode_frame(
          "{\"op\":\"open\",\"session\":\"fz\",\"circuit\":\"INPUT(a)\\n"
          "OUTPUT(y)\\ny = NOT(a)\\n\",\"tests\":\"0\\n1\\n\","
          "\"threads\":2,\"batch\":4,\"wait_ms\":1}") +
      encode_frame("{\"op\":\"watch\",\"session\":\"fz\",\"after\":0,"
                   "\"wait_ms\":1}") +
      encode_frame("{\"op\":\"status\",\"session\":\"fz\"}") +
      encode_frame("{\"op\":\"stats\"}");

  Rng rng{0xC0FFEE5EEDull};
  std::size_t streams_poisoned = 0, payloads_handled = 0;
  for (int round = 0; round < 1000; ++round) {
    const std::string stream = mutate(seed_stream, rng);
    FrameDecoder dec;
    try {
      // Feed in random-sized chunks, as a socket would deliver them.
      std::size_t off = 0;
      std::string payload;
      while (off < stream.size()) {
        const std::size_t n =
            std::min(stream.size() - off, 1 + rng.below(97));
        dec.feed(stream.data() + off, n);
        off += n;
        while (dec.take(payload)) {
          // handle() must return structured JSON for ANY payload bytes.
          const std::string resp = service.handle(payload);
          const JsonValue r = json_parse(resp);
          ASSERT_TRUE(r.is_object()) << "round " << round;
          ASSERT_NE(r.find("ok"), nullptr) << "round " << round;
          ++payloads_handled;
        }
      }
    } catch (const ProtocolError& pe) {
      // Framing-level poison: structured, connection would be dropped.
      EXPECT_EQ(pe.code(), "frame_too_large") << "round " << round;
      ++streams_poisoned;
    }
    // No other exception type may escape; gtest turns one into a failure
    // (and a crash fails the whole binary, which is the real assertion).
  }
  // The mutator must actually exercise both outcomes.
  EXPECT_GT(streams_poisoned, 0u);
  EXPECT_GT(payloads_handled, 100u);

  // The service survived the bombardment and still answers cleanly.
  const JsonValue hello = json_parse(service.handle("{\"op\":\"hello\"}"));
  EXPECT_TRUE(hello.find("ok")->as_bool());
}

TEST(SvcFuzz, IntactFramesInsideMutatedStreamsStillParse) {
  // Duplicated frames must each be handled independently: feed the same
  // valid hello frame N times and expect N well-formed responses.
  svc::Service service(inert_config(tmp_path("svc_proto_dup")));
  const std::string f = encode_frame("{\"op\":\"hello\"}");
  std::string stream;
  for (int i = 0; i < 5; ++i) stream += f;
  FrameDecoder dec;
  dec.feed(stream.data(), stream.size());
  std::string payload;
  int served = 0;
  while (dec.take(payload)) {
    const JsonValue r = json_parse(service.handle(payload));
    EXPECT_TRUE(r.find("ok")->as_bool());
    ++served;
  }
  EXPECT_EQ(served, 5);
}

}  // namespace
}  // namespace cfs
