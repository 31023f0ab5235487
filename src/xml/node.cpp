#include "xml/node.h"

#include <cstring>
#include <string>

#include "common/error.h"

namespace omadrm::xml {

using omadrm::Error;
using omadrm::ErrorKind;

// ---------------------------------------------------------------------------
// Node accessors
// ---------------------------------------------------------------------------

const std::string_view* Node::attr(std::string_view key) const {
  for (const Attr* a = first_attr_; a; a = a->next) {
    if (a->name == key) return &a->value;
  }
  return nullptr;
}

std::string_view Node::require_attr(std::string_view key) const {
  const std::string_view* v = attr(key);
  if (!v) {
    throw Error(ErrorKind::kFormat, "xml: missing attribute '" +
                                        std::string(key) + "' on <" +
                                        std::string(name_) + ">");
  }
  return *v;
}

const Node* Node::child(std::string_view name) const {
  for (const Node* c = first_child_; c; c = c->next_sibling_) {
    if (c->name_ == name) return c;
  }
  return nullptr;
}

const Node& Node::require_child(std::string_view name) const {
  const Node* c = child(name);
  if (!c) {
    throw Error(ErrorKind::kFormat, "xml: missing child <" +
                                        std::string(name) + "> in <" +
                                        std::string(name_) + ">");
  }
  return *c;
}

std::string_view Node::child_text(std::string_view name) const {
  return require_child(name).text();
}

// ---------------------------------------------------------------------------
// Single-pass zero-copy parser
// ---------------------------------------------------------------------------

struct NodeBuilder {
  static Node* make(Arena& arena) { return arena.create<Node>(); }
  static void set_name(Node& n, std::string_view v) { n.name_ = v; }
  static void set_text(Node& n, std::string_view v) { n.text_ = v; }
  static void add_attr(Arena& arena, Node& n, const Attr*& tail,
                       std::string_view name, std::string_view value) {
    Attr* a = arena.create<Attr>();
    a->name = name;
    a->value = value;
    if (!n.first_attr_) {
      n.first_attr_ = a;
    } else {
      const_cast<Attr*>(tail)->next = a;
    }
    tail = a;
  }
  static void add_child(Node& parent, Node*& tail, Node* child) {
    if (!parent.first_child_) {
      parent.first_child_ = child;
    } else {
      tail->next_sibling_ = child;
    }
    tail = child;
  }
};

namespace {

// Character-data text inside one element arrives as runs separated by
// child elements and comments. Runs are tracked as an arena-allocated
// list so the common cases (no text, or one contiguous run aliasing the
// document) never copy.
struct TextSeg {
  std::string_view s;
  TextSeg* next = nullptr;
};

class Parser {
 public:
  Parser(Arena& arena, std::string_view doc) : arena_(arena), doc_(doc) {}

  const Node& parse_document() {
    skip_misc();
    Node* root = parse_element(0);
    skip_misc();
    if (pos_ != doc_.size()) {
      fail("content after document root");
    }
    return *root;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    // coldpath: parse-abort diagnostics; the accept path never gets here.
    throw Error(ErrorKind::kFormat,
                "xml: " + why + " at offset " + std::to_string(pos_));
  }

  bool eof() const { return pos_ >= doc_.size(); }
  char peek() const {
    if (eof()) fail("unexpected end of document");
    return doc_[pos_];
  }
  char take() {
    char c = peek();
    ++pos_;
    return c;
  }
  bool consume(std::string_view token) {
    if (doc_.substr(pos_, token.size()) == token) {
      pos_ += token.size();
      return true;
    }
    return false;
  }
  void expect(std::string_view token, const char* what) {
    if (!consume(token)) fail(std::string("expected ") + what);
  }
  static bool is_space(char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
  }
  static bool is_name_start(char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  }
  static bool is_name_char(char c) {
    return is_name_start(c) || (c >= '0' && c <= '9') || c == '-' || c == '.';
  }

  void skip_space() {
    while (!eof() && is_space(doc_[pos_])) ++pos_;
  }

  // Whitespace, comments, processing instructions between markup.
  void skip_misc() {
    for (;;) {
      skip_space();
      if (consume("<!--")) {
        std::size_t end = doc_.find("-->", pos_);
        if (end == std::string_view::npos) fail("unterminated comment");
        pos_ = end + 3;
      } else if (consume("<?")) {
        std::size_t end = doc_.find("?>", pos_);
        if (end == std::string_view::npos) fail("unterminated PI");
        pos_ = end + 2;
      } else {
        return;
      }
    }
  }

  std::string_view parse_name() {
    if (!is_name_start(peek())) fail("invalid name start");
    const std::size_t start = pos_;
    while (!eof() && is_name_char(doc_[pos_])) ++pos_;
    return doc_.substr(start, pos_ - start);
  }

  // Appends the decoding of the entity at pos_ (just past '&') to `out`,
  // returning the new end. The caller sized `out` to the raw run length,
  // which every entity (>= 4 source chars, <= 4 decoded bytes) respects.
  char* decode_entity(char* out) {
    if (consume("amp;")) { *out++ = '&'; return out; }
    if (consume("lt;")) { *out++ = '<'; return out; }
    if (consume("gt;")) { *out++ = '>'; return out; }
    if (consume("quot;")) { *out++ = '"'; return out; }
    if (consume("apos;")) { *out++ = '\''; return out; }
    if (consume("#")) {
      const int base = consume("x") ? 16 : 10;
      std::uint32_t code = 0;
      bool any = false;
      while (!eof() && peek() != ';') {
        char c = take();
        int digit;
        if (c >= '0' && c <= '9') digit = c - '0';
        else if (base == 16 && c >= 'a' && c <= 'f') digit = c - 'a' + 10;
        else if (base == 16 && c >= 'A' && c <= 'F') digit = c - 'A' + 10;
        else fail("bad character reference");
        code = code * static_cast<std::uint32_t>(base) +
               static_cast<std::uint32_t>(digit);
        any = true;
        if (code > 0x10ffff) fail("character reference out of range");
      }
      expect(";", "';' after character reference");
      if (!any) fail("empty character reference");
      // UTF-8 encode.
      if (code < 0x80) {
        *out++ = static_cast<char>(code);
      } else if (code < 0x800) {
        *out++ = static_cast<char>(0xc0 | (code >> 6));
        *out++ = static_cast<char>(0x80 | (code & 0x3f));
      } else if (code < 0x10000) {
        *out++ = static_cast<char>(0xe0 | (code >> 12));
        *out++ = static_cast<char>(0x80 | ((code >> 6) & 0x3f));
        *out++ = static_cast<char>(0x80 | (code & 0x3f));
      } else {
        *out++ = static_cast<char>(0xf0 | (code >> 18));
        *out++ = static_cast<char>(0x80 | ((code >> 12) & 0x3f));
        *out++ = static_cast<char>(0x80 | ((code >> 6) & 0x3f));
        *out++ = static_cast<char>(0x80 | (code & 0x3f));
      }
      return out;
    }
    fail("unknown entity");
  }

  // Decodes the character-data run [pos_, pos_ + raw_len) — which
  // contains at least one '&' — into the arena. Entities only shrink, so
  // raw_len bounds the output; the surplus is returned to the arena.
  std::string_view decode_run(std::size_t raw_len) {
    char* buf = arena_.alloc_chars(raw_len);
    char* out = buf;
    const std::size_t end = pos_ + raw_len;
    while (pos_ < end) {
      char c = take();
      if (c == '&') {
        out = decode_entity(out);
      } else {
        *out++ = c;
      }
    }
    arena_.trim(raw_len - static_cast<std::size_t>(out - buf));
    return std::string_view(buf, static_cast<std::size_t>(out - buf));
  }

  std::string_view parse_attr_value() {
    const char quote = take();
    if (quote != '"' && quote != '\'') fail("attribute value must be quoted");
    const std::size_t start = pos_;
    bool has_entity = false;
    for (;;) {
      if (eof()) fail("unterminated attribute value");
      char c = doc_[pos_];
      if (c == quote) break;
      if (c == '<') fail("'<' in attribute value");
      if (c == '&') has_entity = true;
      ++pos_;
    }
    const std::size_t raw_len = pos_ - start;
    std::string_view value;
    if (!has_entity) {
      value = doc_.substr(start, raw_len);  // zero-copy alias
    } else {
      pos_ = start;
      value = decode_run(raw_len);
      // decode_run consumed exactly raw_len; the closing quote follows,
      // but entities inside may legally contain the quote char decoded —
      // the raw scan above already located the real closing quote.
    }
    ++pos_;  // closing quote
    return value;
  }

  Node* parse_element(std::size_t depth) {
    if (depth >= kMaxParseDepth) fail("nesting too deep");
    expect("<", "'<'");
    Node* e = NodeBuilder::make(arena_);
    NodeBuilder::set_name(*e, parse_name());
    const Attr* attr_tail = nullptr;

    // Attributes.
    for (;;) {
      skip_space();
      if (consume("/>")) return e;
      if (consume(">")) break;
      std::string_view key = parse_name();
      skip_space();
      expect("=", "'=' after attribute name");
      skip_space();
      if (e->attr(key)) fail("duplicate attribute '" + std::string(key) + "'");
      NodeBuilder::add_attr(arena_, *e, attr_tail, key, parse_attr_value());
    }

    // Content: character-data runs interleaved with children/comments.
    TextSeg* seg_head = nullptr;
    TextSeg* seg_tail = nullptr;
    std::size_t text_len = 0;
    Node* child_tail = nullptr;
    bool has_children = false;

    auto add_seg = [&](std::string_view s) {
      if (s.empty()) return;
      TextSeg* seg = arena_.create<TextSeg>();
      seg->s = s;
      if (!seg_head) seg_head = seg; else seg_tail->next = seg;
      seg_tail = seg;
      text_len += s.size();
    };

    for (;;) {
      if (eof()) {
        fail("unterminated element <" + std::string(e->name()) + ">");
      }
      const char c = doc_[pos_];
      if (c == '<') {
        if (consume("<!--")) {
          std::size_t end = doc_.find("-->", pos_);
          if (end == std::string_view::npos) fail("unterminated comment");
          pos_ = end + 3;
          continue;
        }
        if (consume("</")) {
          std::string_view closing = parse_name();
          if (closing != e->name()) {
            fail("mismatched closing tag </" + std::string(closing) +
                 "> for <" + std::string(e->name()) + ">");
          }
          skip_space();
          expect(">", "'>' after closing tag");
          NodeBuilder::set_text(*e,
                                finish_text(seg_head, text_len, has_children));
          return e;
        }
        if (doc_.substr(pos_, 2) == "<!") fail("DTD/CDATA unsupported");
        NodeBuilder::add_child(*e, child_tail, parse_element(depth + 1));
        has_children = true;
        continue;
      }
      // A run of character data: scan to the next markup, decode entities
      // only when present.
      const std::size_t start = pos_;
      bool has_entity = false;
      while (pos_ < doc_.size() && doc_[pos_] != '<') {
        if (doc_[pos_] == '&') has_entity = true;
        ++pos_;
      }
      const std::size_t raw_len = pos_ - start;
      if (!has_entity) {
        add_seg(doc_.substr(start, raw_len));  // zero-copy alias
      } else {
        pos_ = start;
        add_seg(decode_run(raw_len));
      }
    }
  }

  // Collapses the text-segment list: zero segments -> empty, one segment
  // -> its view (usually aliasing the document), several -> one arena
  // concatenation. Whitespace-only text around child elements is
  // formatting, not content; drop it so indented documents parse to the
  // same tree as compact ones.
  std::string_view finish_text(const TextSeg* head, std::size_t total,
                               bool has_children) {
    if (!head) return std::string_view();
    if (has_children) {
      bool all_space = true;
      for (const TextSeg* s = head; s && all_space; s = s->next) {
        if (s->s.find_first_not_of(" \t\r\n") != std::string_view::npos) {
          all_space = false;
        }
      }
      if (all_space) return std::string_view();
    }
    if (!head->next) return head->s;
    char* buf = arena_.alloc_chars(total);
    char* out = buf;
    for (const TextSeg* s = head; s; s = s->next) {
      std::memcpy(out, s->s.data(), s->s.size());
      out += s->s.size();
    }
    return std::string_view(buf, total);
  }

  Arena& arena_;
  std::string_view doc_;
  std::size_t pos_ = 0;
};

}  // namespace

const Node& parse_in(Arena& arena, std::string_view doc) {
  return Parser(arena, doc).parse_document();
}

}  // namespace omadrm::xml
