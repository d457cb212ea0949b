// Minimal JSON reader for the benchmark's own files (golden pins and
// result sets). The image has no JSON library; this covers the subset
// those files use: objects, strings without \u escapes, numbers,
// true/false/null.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ratt_bench {

/// One parsed value: a number, a string or an object (true, false and
/// null parse but carry nothing the benchmark reads).
struct Json {
  double number = 0.0;
  std::string string;
  std::vector<std::pair<std::string, Json>> object;

  /// Member lookup; nullptr when absent or not an object.
  const Json* find(std::string_view key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<Json> parse() {
    Json value;
    if (!value_into(value)) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\r' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool string_into(std::string& out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        c = text_[pos_++];
        if (c == 'n') c = '\n';
        else if (c == 't') c = '\t';
        else if (c != '"' && c != '\\' && c != '/') return false;
      }
      out.push_back(c);
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;
    return true;
  }

  bool value_into(Json& v) {
    if (++depth_ > 64) return false;
    skip_ws();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    bool ok = true;
    if (c == '{') {
      ++pos_;
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
      } else {
        for (;;) {
          skip_ws();
          std::string key;
          Json member;
          if (!string_into(key)) return false;
          skip_ws();
          if (pos_ >= text_.size() || text_[pos_++] != ':') return false;
          if (!value_into(member)) return false;
          v.object.emplace_back(std::move(key), std::move(member));
          skip_ws();
          if (pos_ >= text_.size()) return false;
          if (text_[pos_] == ',') {
            ++pos_;
            continue;
          }
          if (text_[pos_++] != '}') return false;
          break;
        }
      }
    } else if (c == '"') {
      ok = string_into(v.string);
    } else if (!literal("true") && !literal("false") && !literal("null")) {
      const std::string rest(text_.substr(pos_, 64));
      char* end = nullptr;
      v.number = std::strtod(rest.c_str(), &end);
      if (end == rest.c_str()) return false;
      pos_ += static_cast<std::size_t>(end - rest.c_str());
    }
    --depth_;
    return ok;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

inline std::optional<Json> parse_json(std::string_view text) {
  return JsonParser(text).parse();
}

}  // namespace ratt_bench
