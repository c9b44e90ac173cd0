#include "pmml/xml.h"

#include <cctype>

#include "common/string_util.h"

namespace fabric::pmml {

const XmlElement* XmlElement::Child(std::string_view tag) const {
  for (const auto& child : children) {
    if (child->name == tag) return child.get();
  }
  return nullptr;
}

std::vector<const XmlElement*> XmlElement::Children(
    std::string_view tag) const {
  std::vector<const XmlElement*> out;
  for (const auto& child : children) {
    if (child->name == tag) out.push_back(child.get());
  }
  return out;
}

std::string XmlElement::Attr(std::string_view key) const {
  auto it = attributes.find(std::string(key));
  return it == attributes.end() ? "" : it->second;
}

std::string XmlEscape(std::string_view text) {
  std::string out;
  for (char c : text) {
    switch (c) {
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '&':
        out += "&amp;";
        break;
      case '"':
        out += "&quot;";
        break;
      case '\'':
        out += "&apos;";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

namespace {

std::string XmlUnescape(std::string_view text) {
  std::string out;
  size_t i = 0;
  while (i < text.size()) {
    if (text[i] != '&') {
      out.push_back(text[i++]);
      continue;
    }
    auto try_entity = [&](std::string_view entity, char replacement) {
      if (text.substr(i, entity.size()) == entity) {
        out.push_back(replacement);
        i += entity.size();
        return true;
      }
      return false;
    };
    if (try_entity("&lt;", '<') || try_entity("&gt;", '>') ||
        try_entity("&amp;", '&') || try_entity("&quot;", '"') ||
        try_entity("&apos;", '\'')) {
      continue;
    }
    out.push_back(text[i++]);
  }
  return out;
}

class XmlParser {
 public:
  explicit XmlParser(std::string_view text) : text_(text) {}

  Result<std::unique_ptr<XmlElement>> Parse() {
    SkipProlog();
    FABRIC_ASSIGN_OR_RETURN(std::unique_ptr<XmlElement> root,
                            ParseElement());
    SkipSpace();
    if (pos_ != text_.size()) {
      return InvalidArgumentError("XML: trailing content after root");
    }
    return root;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  void SkipProlog() {
    SkipSpace();
    while (pos_ + 1 < text_.size() && text_[pos_] == '<' &&
           (text_[pos_ + 1] == '?' || text_[pos_ + 1] == '!')) {
      size_t end = text_.find('>', pos_);
      if (end == std::string_view::npos) return;
      pos_ = end + 1;
      SkipSpace();
    }
  }

  Result<std::unique_ptr<XmlElement>> ParseElement() {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != '<') {
      return InvalidArgumentError("XML: expected '<'");
    }
    ++pos_;
    auto element = std::make_unique<XmlElement>();
    while (pos_ < text_.size() && !std::isspace(static_cast<unsigned char>(
                                      text_[pos_])) &&
           text_[pos_] != '>' && text_[pos_] != '/') {
      element->name.push_back(text_[pos_++]);
    }
    if (element->name.empty()) {
      return InvalidArgumentError("XML: empty tag name");
    }
    // Attributes.
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size()) {
        return InvalidArgumentError("XML: unterminated tag");
      }
      if (text_[pos_] == '/') {
        if (pos_ + 1 >= text_.size() || text_[pos_ + 1] != '>') {
          return InvalidArgumentError("XML: bad self-close");
        }
        pos_ += 2;
        return element;
      }
      if (text_[pos_] == '>') {
        ++pos_;
        break;
      }
      std::string key;
      while (pos_ < text_.size() && text_[pos_] != '=' &&
             !std::isspace(static_cast<unsigned char>(text_[pos_]))) {
        key.push_back(text_[pos_++]);
      }
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '=') {
        return InvalidArgumentError(StrCat("XML: attribute '", key,
                                           "' missing '='"));
      }
      ++pos_;
      SkipSpace();
      if (pos_ >= text_.size() ||
          (text_[pos_] != '"' && text_[pos_] != '\'')) {
        return InvalidArgumentError("XML: attribute value not quoted");
      }
      char quote = text_[pos_++];
      size_t end = text_.find(quote, pos_);
      if (end == std::string_view::npos) {
        return InvalidArgumentError("XML: unterminated attribute value");
      }
      element->attributes[key] =
          XmlUnescape(text_.substr(pos_, end - pos_));
      pos_ = end + 1;
    }
    // Content: children and text until the closing tag.
    while (true) {
      size_t text_start = pos_;
      size_t lt = text_.find('<', pos_);
      if (lt == std::string_view::npos) {
        return InvalidArgumentError(
            StrCat("XML: missing </", element->name, ">"));
      }
      std::string chunk(Trim(text_.substr(text_start, lt - text_start)));
      if (!chunk.empty()) element->text += XmlUnescape(chunk);
      pos_ = lt;
      if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '/') {
        size_t end = text_.find('>', pos_);
        if (end == std::string_view::npos) {
          return InvalidArgumentError("XML: unterminated close tag");
        }
        std::string closing(
            Trim(text_.substr(pos_ + 2, end - pos_ - 2)));
        if (closing != element->name) {
          return InvalidArgumentError(StrCat("XML: expected </",
                                             element->name, ">, got </",
                                             closing, ">"));
        }
        pos_ = end + 1;
        return element;
      }
      FABRIC_ASSIGN_OR_RETURN(std::unique_ptr<XmlElement> child,
                              ParseElement());
      element->children.push_back(std::move(child));
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

std::string XmlElement::ToString(int indent) const {
  std::string pad(indent * 2, ' ');
  std::string out = StrCat(pad, "<", name);
  for (const auto& [key, value] : attributes) {
    out += StrCat(" ", key, "=\"", XmlEscape(value), "\"");
  }
  if (children.empty() && text.empty()) {
    out += "/>\n";
    return out;
  }
  out += ">";
  if (!text.empty()) out += XmlEscape(text);
  if (!children.empty()) {
    out += "\n";
    for (const auto& child : children) {
      out += child->ToString(indent + 1);
    }
    out += pad;
  }
  out += StrCat("</", name, ">\n");
  return out;
}

Result<std::unique_ptr<XmlElement>> ParseXml(std::string_view text) {
  XmlParser parser(text);
  return parser.Parse();
}

}  // namespace fabric::pmml
