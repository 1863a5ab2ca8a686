// The run-spec text codec shared by chaos, stream and mc captures.
//
// The first frame of every capture is the serialized spec of the run that
// produced it: "key value" lines under a "<magic> 1" header. Each spec
// lists its fields once, in one visit function over a visitor `v`:
//
//   v.field("seed", s.seed);                     // one token per value
//   v.field("arrival", named(s.arrival, kFlatten, kShuffled));
//   v.records("cut", s.partitions,               // one line per element
//             [](auto&& line, auto& p) { line(p.a, p.b, p.at); });
//
// `encode` runs it once with a Writer; `decode` runs it once per input line
// with a Reader that fills the field whose key matches. Integers and
// doubles parse whole-token through `parse_number`; doubles print as %.17g,
// so encode(decode(x)) == x byte for byte (the replay comparator relies on
// that). Bools are 0/1, strings verbatim. Every spec reports the same
// errors: empty input → kEmptyInput; bad magic or unparsable version →
// kBadHeader; version outside [1, kVersion] → kUnsupportedVersion; unknown
// key → kUnknownOp; wrong token count or unknown enum name → kBadSyntax;
// bad or out-of-range number or flag → kBadNumber.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "serialize/decode_error.hpp"
#include "serialize/framing.hpp"

namespace icecube::spec_text {

inline constexpr int kVersion = 1;

/// An enum token over the contiguous values first..last, spelled by its
/// `to_string` or, for `numbered`, as its number. Decoding rejects other
/// values; encoding writes a value outside the range as `first`.
template <typename E>
struct EnumToken {
  using Value = std::remove_const_t<E>;
  E& value;
  Value first;
  Value last;
  bool by_name;

  [[nodiscard]] std::string text() const {
    const Value v = value < first || value > last ? first : value;
    return by_name ? std::string(to_string(v))
                   : std::to_string(static_cast<unsigned>(v));
  }
  [[nodiscard]] DecodeErrorKind read(std::string_view token) const {
    const auto lo = static_cast<unsigned>(first);
    const auto hi = static_cast<unsigned>(last);
    if (!by_name) {
      const auto n = serialize_detail::parse_number<unsigned>(token);
      if (!n || *n < lo || *n > hi) return DecodeErrorKind::kBadNumber;
      value = static_cast<Value>(*n);
      return DecodeErrorKind::kNone;
    }
    for (unsigned i = lo; i <= hi; ++i) {
      if (to_string(static_cast<Value>(i)) != token) continue;
      value = static_cast<Value>(i);
      return DecodeErrorKind::kNone;
    }
    return DecodeErrorKind::kBadSyntax;
  }
};
template <typename E, typename V = std::remove_const_t<E>>
[[nodiscard]] EnumToken<E> named(E& value, std::type_identity_t<V> first,
                                 std::type_identity_t<V> last) {
  return {value, first, last, true};
}
template <typename E, typename V = std::remove_const_t<E>>
[[nodiscard]] EnumToken<E> numbered(E& value, std::type_identity_t<V> last) {
  return {value, V{}, last, false};
}

/// Appends the wire form of one token.
template <typename T>
void put(std::string& out, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    out += v ? '1' : '0';
  } else if constexpr (std::is_floating_point_v<T>) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += buf;
  } else if constexpr (std::is_integral_v<T>) {
    out += std::to_string(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    out += v;
  } else {
    out += v.text();
  }
}

/// Parses one token into `v`; kNone on success.
template <typename T>
[[nodiscard]] DecodeErrorKind get(std::string_view token, T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    v = std::string(token);
  } else if constexpr (std::is_same_v<T, bool>) {
    if (token != "0" && token != "1") return DecodeErrorKind::kBadNumber;
    v = token == "1";
  } else if constexpr (std::is_arithmetic_v<T>) {
    const auto parsed = serialize_detail::parse_number<T>(token);
    if (!parsed) return DecodeErrorKind::kBadNumber;
    v = *parsed;
  } else {
    return v.read(token);
  }
  return DecodeErrorKind::kNone;
}

/// The `sep`-separated pieces of `text`, empty pieces kept unless `collapse`.
[[nodiscard]] inline std::vector<std::string_view> split(
    std::string_view text, char sep, bool collapse) {
  std::vector<std::string_view> pieces;
  for (std::size_t start = 0; start <= text.size();) {
    const std::size_t end = std::min(text.find(sep, start), text.size());
    if (!collapse || end > start) {
      pieces.push_back(text.substr(start, end - start));
    }
    start = end + 1;
  }
  return pieces;
}

/// Appends one "key token..." line per field, in visit order.
class Writer {
 public:
  explicit Writer(std::string_view magic) : out_(magic) {
    out_ += ' ' + std::to_string(kVersion) + '\n';
  }

  template <typename... T>
  void field(std::string_view key, const T&... tokens) {
    out_ += key;
    ((out_ += ' ', put(out_, tokens)), ...);
    out_ += '\n';
  }
  template <typename R, typename Each>
  void records(std::string_view key, const std::vector<R>& list, Each each) {
    for (const R& r : list) {
      each([&](const auto&... tokens) { field(key, tokens...); }, r);
    }
  }

  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Parses one input line into the field its first token names.
class Reader {
 public:
  Reader(std::string_view line, std::size_t line_no)
      : line_(line), tokens_(split(line, ' ', true)), line_no_(line_no) {}

  template <typename... T>
  void field(std::string_view key, T&&... targets) {
    if (claim(key)) parse(targets...);
  }
  template <typename R, typename Each>
  void records(std::string_view key, std::vector<R>& list, Each each) {
    if (!claim(key)) return;
    R record{};
    each([&](auto&&... targets) { parse(targets...); }, record);
    if (error_.ok()) list.push_back(std::move(record));
  }

  [[nodiscard]] bool blank() const { return tokens_.empty(); }
  [[nodiscard]] std::string_view key() const { return tokens_.front(); }
  [[nodiscard]] bool matched() const { return matched_; }
  [[nodiscard]] const DecodeError& error() const { return error_; }

 private:
  bool claim(std::string_view key) {
    if (matched_ || key != tokens_.front()) return false;
    matched_ = true;
    return true;
  }
  template <typename... T>
  void parse(T&... targets) {
    if (tokens_.size() != sizeof...(T) + 1) {
      error_ = {DecodeErrorKind::kBadSyntax, line_no_, std::string(line_)};
      return;
    }
    std::size_t i = 0;
    const auto one = [&](auto& target) {
      const std::string_view token = tokens_[++i];
      const DecodeErrorKind kind = get(token, target);
      if (kind != DecodeErrorKind::kNone) {
        error_ = {kind, line_no_, std::string(token)};
      }
      return error_.ok();
    };
    (void)(one(targets) && ...);
  }

  std::string_view line_;
  std::vector<std::string_view> tokens_;
  std::size_t line_no_;
  bool matched_ = false;
  DecodeError error_;
};

/// The header line, then `visit(writer)`'s lines.
template <typename Visit>
[[nodiscard]] std::string encode(std::string_view magic, Visit visit) {
  Writer writer(magic);
  visit(writer);
  return writer.take();
}

/// Checks the header, then runs `visit(reader)` once per non-blank line.
/// Returns the first error; fields decoded before it keep their values.
template <typename Visit>
[[nodiscard]] DecodeError decode(std::string_view magic, std::string_view text,
                                 Visit visit) {
  std::vector<std::string_view> lines = split(text, '\n', false);
  while (!lines.empty() && lines.back().empty()) lines.pop_back();
  if (lines.empty()) return {DecodeErrorKind::kEmptyInput, 0, {}};

  const auto head = split(lines.front(), ' ', true);
  if (head.size() != 2 || head[0] != magic) {
    return {DecodeErrorKind::kBadHeader, 1, std::string(lines.front())};
  }
  const auto version = serialize_detail::parse_number<int>(head[1]);
  if (!version) return {DecodeErrorKind::kBadHeader, 1, std::string(head[1])};
  if (*version < 1 || *version > kVersion) {
    return {DecodeErrorKind::kUnsupportedVersion, 1,
            "spec version " + std::to_string(*version)};
  }

  for (std::size_t i = 1; i < lines.size(); ++i) {
    Reader reader(lines[i], i + 1);
    if (reader.blank()) continue;
    visit(reader);
    if (!reader.matched()) {
      return {DecodeErrorKind::kUnknownOp, i + 1, std::string(reader.key())};
    }
    if (!reader.error().ok()) return reader.error();
  }
  return {};
}

}  // namespace icecube::spec_text
