// The storage module's byte-level primitives (storage/format.h): LEB128
// varints with their overflow and truncation guards, length-prefixed
// strings, fixed64 values and the section checksum. The snapshot format
// (storage/snapshot.h) encodes its TOC and metadata with them.

#include "storage/format.h"

#include <gtest/gtest.h>

#include <string>

namespace xfrag::storage {
namespace {

TEST(FormatTest, VarintRoundTrip) {
  for (uint64_t value :
       {0ull, 1ull, 127ull, 128ull, 300ull, 16383ull, 16384ull,
        0xFFFFFFFFull, 0xFFFFFFFFFFFFFFFFull}) {
    std::string buffer;
    PutVarint(value, &buffer);
    Reader reader(buffer);
    auto decoded = reader.ReadVarint();
    ASSERT_TRUE(decoded.ok()) << value;
    EXPECT_EQ(*decoded, value);
    EXPECT_TRUE(reader.AtEnd());
  }
}

TEST(FormatTest, VarintEncodingIsCompact) {
  std::string one_byte, two_bytes;
  PutVarint(127, &one_byte);
  PutVarint(128, &two_bytes);
  EXPECT_EQ(one_byte.size(), 1u);
  EXPECT_EQ(two_bytes.size(), 2u);
}

TEST(FormatTest, TruncatedVarintRejected) {
  std::string buffer;
  PutVarint(300, &buffer);
  Reader reader(std::string_view(buffer).substr(0, 1));
  EXPECT_FALSE(reader.ReadVarint().ok());
}

TEST(FormatTest, MaxLengthVarintAccepted) {
  // UINT64_MAX encodes to exactly kMaxVarintBytes bytes.
  std::string buffer;
  PutVarint(0xFFFFFFFFFFFFFFFFull, &buffer);
  EXPECT_EQ(buffer.size(), static_cast<size_t>(kMaxVarintBytes));
  Reader reader(buffer);
  auto decoded = reader.ReadVarint();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, 0xFFFFFFFFFFFFFFFFull);
}

TEST(FormatTest, OverlongVarintRejected) {
  // Eleven continuation bytes: a malicious encoding that would decode to a
  // value no 64-bit varint can hold. The reader must stop at the 10-byte
  // cap with ParseError instead of looping or wrapping.
  std::string buffer(11, '\x80');
  buffer.push_back('\x01');
  Reader reader(buffer);
  auto decoded = reader.ReadVarint();
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
}

TEST(FormatTest, VarintHighBitOverflowRejected) {
  // Ten bytes whose final byte carries more than the single bit that fits
  // into bit 63: accepting it would silently truncate the value.
  std::string buffer(9, '\x80');
  buffer.push_back('\x02');  // Shift 63, payload 2 > 1.
  Reader reader(buffer);
  auto decoded = reader.ReadVarint();
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
}

TEST(FormatTest, AllContinuationBytesRejected) {
  // No terminator at all — must be truncation/overflow, never a hang.
  std::string buffer(64, '\x80');
  Reader reader(buffer);
  EXPECT_FALSE(reader.ReadVarint().ok());
}

TEST(FormatTest, StringRoundTrip) {
  std::string buffer;
  PutString("", &buffer);
  PutString("hello", &buffer);
  std::string binary("\x00\xFF\x80 raw", 8);
  PutString(binary, &buffer);
  Reader reader(buffer);
  EXPECT_EQ(*reader.ReadString(), "");
  EXPECT_EQ(*reader.ReadString(), "hello");
  EXPECT_EQ(*reader.ReadString(), binary);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(FormatTest, TruncatedStringRejected) {
  std::string buffer;
  PutString("hello world", &buffer);
  Reader reader(std::string_view(buffer).substr(0, 4));
  EXPECT_FALSE(reader.ReadString().ok());
}

TEST(FormatTest, Fixed64RoundTrip) {
  std::string buffer;
  PutFixed64(0xdeadbeefcafef00dULL, &buffer);
  EXPECT_EQ(buffer.size(), 8u);
  Reader reader(buffer);
  EXPECT_EQ(*reader.ReadFixed64(), 0xdeadbeefcafef00dULL);
}

TEST(FormatTest, ChecksumDetectsChanges) {
  EXPECT_EQ(Checksum("abc"), Checksum("abc"));
  EXPECT_NE(Checksum("abc"), Checksum("abd"));
  EXPECT_NE(Checksum("abc"), Checksum("ab"));
}

}  // namespace
}  // namespace xfrag::storage
