// The serve tier's line-JSON wire protocol.
//
// Every message on a serve connection is one JSON object on one line
// (terminated by '\n'): a "type" string plus flat string / integer /
// boolean fields.  Flatness is deliberate -- nested values are rejected --
// so the parser is small enough to audit, a malformed request can always
// be answered with a structured error instead of a crash, and framing
// survives any payload (reports travel as JSON-escaped strings in the
// existing shard format, which carries its own checksum).
//
// docs/serve_protocol.md specifies every message type and field; this
// header is deliberately schema-free (a Message is a typed bag of fields)
// so the protocol document stays the single source of truth.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace nrn::serve {

/// Protocol identifier, echoed by the daemon's hello/status replies.
inline constexpr const char* kProtocolVersion = "nrn-serve-1";

/// Default cap on one wire line.  Large enough for any sane plan, small
/// enough that a hostile client cannot balloon the daemon's line buffer.
/// Server replies (reports) are exempt -- the cap protects the daemon's
/// inbound path; clients read replies of any length.
inline constexpr std::size_t kMaxRequestBytes = 1 << 20;

/// Any wire-level violation: malformed JSON, nesting, bad escapes,
/// missing/mistyped fields, oversized lines.  The daemon converts these
/// into `error` replies; it never dies of one.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

/// One flat line-JSON message.  Fields keep insertion order when
/// serialized, so wire bytes are deterministic for a given build sequence.
class Message {
 public:
  Message() = default;
  explicit Message(std::string type) : type_(std::move(type)) {}

  const std::string& type() const { return type_; }

  Message& set(const std::string& key, std::string value);
  Message& set(const std::string& key, const char* value) {
    return set(key, std::string(value));
  }
  Message& set(const std::string& key, std::int64_t value);
  Message& set(const std::string& key, int value) {
    return set(key, static_cast<std::int64_t>(value));
  }
  Message& set(const std::string& key, bool value);

  bool has(const std::string& key) const;

  /// Typed accessors; throw WireError when the field is absent or has a
  /// different type (the daemon turns that into a structured error reply).
  const std::string& str(const std::string& key) const;
  std::int64_t integer(const std::string& key) const;
  bool boolean(const std::string& key) const;

  std::int64_t integer_or(const std::string& key,
                          std::int64_t fallback) const {
    return has(key) ? integer(key) : fallback;
  }

  /// One line of JSON, no trailing newline.
  std::string serialize() const;

  /// Strict parse of one line.  Throws WireError on anything but a flat
  /// object with unique keys and a string "type" field.
  static Message parse(std::string_view line);

 private:
  struct Field {
    enum class Kind { kString, kInt, kBool };
    std::string key;
    Kind kind = Kind::kString;
    std::string string_value;
    std::int64_t int_value = 0;
    bool bool_value = false;
  };

  const Field* find(const std::string& key) const;
  const Field& require(const std::string& key, Field::Kind kind) const;

  std::string type_;
  std::vector<Field> fields_;
};

}  // namespace nrn::serve
