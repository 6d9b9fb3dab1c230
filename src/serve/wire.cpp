#include "serve/wire.hpp"

#include <charconv>

#include "common/numio.hpp"

namespace nrn::serve {

namespace {

[[noreturn]] void bad_wire(const std::string& what) { throw WireError(what); }

/// Minimal recursive-descent scanner over one line.  No recursion in
/// practice: nesting is rejected at depth 1.
struct Scanner {
  std::string_view text;
  std::size_t pos = 0;

  bool done() const { return pos >= text.size(); }

  char peek() const {
    if (done()) bad_wire("unexpected end of message");
    return text[pos];
  }

  char take() {
    const char c = peek();
    ++pos;
    return c;
  }

  void skip_spaces() {
    while (!done() && (text[pos] == ' ' || text[pos] == '\t' ||
                       text[pos] == '\r'))
      ++pos;
  }

  void expect(char c) {
    if (take() != c)
      bad_wire(std::string("expected '") + c + "' at byte " +
               std::to_string(pos - 1));
  }

  /// UTF-8 encodes one code point (BMP only; the wire never needs more).
  void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::string string_value() {
    expect('"');
    std::string out;
    while (true) {
      const char c = take();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        bad_wire("raw control character inside string");
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = take();
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = take();
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              cp |= static_cast<unsigned>(h - 'A' + 10);
            else
              bad_wire("malformed \\u escape");
          }
          if (cp >= 0xD800 && cp <= 0xDFFF)
            bad_wire("surrogate \\u escapes are not supported");
          append_utf8(out, cp);
          break;
        }
        default:
          bad_wire(std::string("unknown escape '\\") + esc + "'");
      }
    }
  }

  std::int64_t int_value() {
    const std::size_t start = pos;
    if (!done() && text[pos] == '-') ++pos;
    while (!done() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    if (pos == start || (text[start] == '-' && pos == start + 1))
      bad_wire("malformed number");
    if (!done() && (text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E'))
      bad_wire("non-integer numbers are not part of the wire protocol");
    // from_chars: locale-independent, no errno, and the result is
    // impossible to leave unchecked -- overflow and trailing junk both
    // surface in the return value.
    std::int64_t value = 0;
    const auto [rest, ec] =
        std::from_chars(text.data() + start, text.data() + pos, value, 10);
    if (ec != std::errc{} || rest != text.data() + pos)
      bad_wire("integer out of range: " +
               std::string(text.substr(start, pos - start)));
    return value;
  }

  bool literal(std::string_view word) {
    if (text.substr(pos, word.size()) != word) return false;
    pos += word.size();
    return true;
  }
};

}  // namespace

Message& Message::set(const std::string& key, std::string value) {
  Field field;
  field.key = key;
  field.kind = Field::Kind::kString;
  field.string_value = std::move(value);
  fields_.push_back(std::move(field));
  return *this;
}

Message& Message::set(const std::string& key, std::int64_t value) {
  Field field;
  field.key = key;
  field.kind = Field::Kind::kInt;
  field.int_value = value;
  fields_.push_back(std::move(field));
  return *this;
}

Message& Message::set(const std::string& key, bool value) {
  Field field;
  field.key = key;
  field.kind = Field::Kind::kBool;
  field.bool_value = value;
  fields_.push_back(std::move(field));
  return *this;
}

const Message::Field* Message::find(const std::string& key) const {
  for (const auto& field : fields_)
    if (field.key == key) return &field;
  return nullptr;
}

bool Message::has(const std::string& key) const { return find(key) != nullptr; }

const Message::Field& Message::require(const std::string& key,
                                       Field::Kind kind) const {
  const Field* field = find(key);
  if (field == nullptr)
    bad_wire("message '" + type_ + "' is missing field '" + key + "'");
  if (field->kind != kind)
    bad_wire("field '" + key + "' of message '" + type_ +
             "' has the wrong type");
  return *field;
}

const std::string& Message::str(const std::string& key) const {
  return require(key, Field::Kind::kString).string_value;
}

std::int64_t Message::integer(const std::string& key) const {
  return require(key, Field::Kind::kInt).int_value;
}

bool Message::boolean(const std::string& key) const {
  return require(key, Field::Kind::kBool).bool_value;
}

std::string Message::serialize() const {
  std::string out = "{\"type\":\"";
  out += json_escape(type_);
  out += '"';
  for (const auto& field : fields_) {
    out += ",\"";
    out += json_escape(field.key);
    out += "\":";
    switch (field.kind) {
      case Field::Kind::kString:
        out += '"';
        out += json_escape(field.string_value);
        out += '"';
        break;
      case Field::Kind::kInt:
        out += std::to_string(field.int_value);
        break;
      case Field::Kind::kBool:
        out += field.bool_value ? "true" : "false";
        break;
    }
  }
  out += "}";
  return out;
}

Message Message::parse(std::string_view line) {
  Scanner scan{line};
  scan.skip_spaces();
  scan.expect('{');
  Message message;
  bool first = true;
  while (true) {
    scan.skip_spaces();
    if (!scan.done() && scan.peek() == '}') {
      scan.take();
      break;
    }
    if (!first) {
      scan.expect(',');
      scan.skip_spaces();
    }
    first = false;
    const std::string key = scan.string_value();
    if (key.empty()) bad_wire("empty field name");
    scan.skip_spaces();
    scan.expect(':');
    scan.skip_spaces();
    const bool duplicate = key == "type" ? !message.type_.empty()
                                         : message.find(key) != nullptr;
    if (duplicate) bad_wire("duplicate field '" + key + "'");
    const char c = scan.peek();
    if (c == '"') {
      std::string value = scan.string_value();
      if (key == "type") {
        if (value.empty()) bad_wire("empty message type");
        message.type_ = std::move(value);
      } else {
        message.set(key, std::move(value));
      }
    } else if (c == '{' || c == '[') {
      bad_wire("nested values are not part of the wire protocol");
    } else if (scan.literal("true")) {
      message.set(key, true);
    } else if (scan.literal("false")) {
      message.set(key, false);
    } else if (scan.literal("null")) {
      bad_wire("null values are not part of the wire protocol");
    } else if (c == '-' || (c >= '0' && c <= '9')) {
      if (key == "type") bad_wire("message type must be a string");
      message.set(key, scan.int_value());
    } else {
      bad_wire(std::string("unexpected character '") + c + "'");
    }
  }
  scan.skip_spaces();
  if (!scan.done()) bad_wire("trailing data after message object");
  if (message.type_.empty())
    bad_wire("message has no \"type\" field");
  return message;
}

}  // namespace nrn::serve
