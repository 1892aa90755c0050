#include "checks.hh"

#include <algorithm>
#include <cctype>

namespace loft_tidy
{

const UnitFacts &
Context::factsOf(const FileUnit &u) const
{
    auto it = factsCache_.find(&u);
    if (it != factsCache_.end())
        return it->second;
    UnitFacts facts;
    facts.classes = findClasses(u);
    facts.annotations = findAnnotations(u);
    facts.methods = findMethods(u, facts.classes);
    return factsCache_.emplace(&u, std::move(facts)).first->second;
}

std::size_t
skipBalanced(const FileUnit &u, std::size_t open, const char *openTok,
             const char *closeTok)
{
    int depth = 0;
    std::size_t i = open;
    for (; i < u.tokens.size(); ++i) {
        const Token &t = u.tok(i);
        if (t.kind == Token::Kind::Punct) {
            if (t.text == openTok)
                ++depth;
            else if (t.text == closeTok && --depth == 0)
                return i + 1;
        }
    }
    return i;
}

std::vector<ClassDecl>
findClasses(const FileUnit &u)
{
    std::vector<ClassDecl> out;
    for (std::size_t i = 0; i < u.tokens.size(); ++i) {
        const Token &kw = u.tok(i);
        if (kw.kind != Token::Kind::Ident ||
            (kw.text != "class" && kw.text != "struct"))
            continue;
        // `enum class` is not a class definition.
        if (i > 0 && u.tok(i - 1).text == "enum")
            continue;
        std::size_t j = i + 1;
        if (u.tok(j).kind != Token::Kind::Ident)
            continue; // anonymous / elaborated use
        ClassDecl cls;
        cls.name = u.tok(j).text;
        cls.line = u.tok(j).line;
        cls.col = u.tok(j).col;
        ++j;
        // Scan the (optional) final specifier and base clause up to the
        // body. A `;` means forward declaration; `(` or `=` means this
        // was an expression/declarator use of the keyword — skip both.
        bool sawColon = false;
        for (; j < u.tokens.size(); ++j) {
            const Token &t = u.tok(j);
            if (t.kind == Token::Kind::Punct) {
                if (t.text == "{")
                    break;
                if (t.text == ";" || t.text == "(" || t.text == ")" ||
                    t.text == "=" || t.text == "}") {
                    j = u.tokens.size();
                    break;
                }
                if (t.text == ":")
                    sawColon = true;
                if (t.text == "<") {
                    // templated base: skip its argument list
                    j = skipBalanced(u, j, "<", ">") - 1;
                }
                continue;
            }
            if (t.kind == Token::Kind::Ident) {
                if (t.text == "final" && !sawColon)
                    cls.isFinal = true;
                else if (sawColon && t.text != "public" &&
                         t.text != "protected" && t.text != "private" &&
                         t.text != "virtual")
                    cls.baseNames.push_back(t.text);
            }
        }
        if (j >= u.tokens.size())
            continue;
        cls.bodyBegin = j;
        cls.bodyEnd = skipBalanced(u, j, "{", "}");
        out.push_back(std::move(cls));
        // Continue scanning *inside* the body too (nested classes are
        // discovered by the ongoing outer loop).
    }
    return out;
}

std::vector<Annotation>
findAnnotations(const FileUnit &u)
{
    std::vector<Annotation> out;
    for (const auto &[line, text] : u.commentOnLine) {
        std::size_t pos = 0;
        while ((pos = text.find("loft-tidy:", pos)) !=
               std::string::npos) {
            pos += 10;
            while (pos < text.size() && text[pos] == ' ')
                ++pos;
            std::size_t end = pos;
            while (end < text.size() &&
                   (std::isalnum(static_cast<unsigned char>(
                        text[end])) ||
                    text[end] == '-' || text[end] == '_'))
                ++end;
            Annotation a;
            a.line = line;
            a.directive = text.substr(pos, end - pos);
            if (end < text.size() && text[end] == '(') {
                std::size_t close = text.find(')', end);
                if (close != std::string::npos)
                    a.arg = text.substr(end + 1, close - end - 1);
            }
            if (!a.directive.empty())
                out.push_back(std::move(a));
            pos = end;
        }
    }
    return out;
}

std::vector<Annotation>
annotationsFor(const FileUnit &u, const ClassDecl &cls,
               const std::vector<Annotation> &all)
{
    const int bodyFirst = u.tok(cls.bodyBegin).line;
    const int bodyLast = cls.bodyEnd > 0
        ? u.tok(cls.bodyEnd - 1).line : bodyFirst;

    // The comment block immediately above the declaration: walk up
    // from the line before `class` while every line carries a comment.
    int blockTop = cls.line;
    while (u.commentOnLine.count(blockTop - 1))
        --blockTop;

    std::vector<Annotation> out;
    for (const Annotation &a : all) {
        const bool aboveDecl = a.line >= blockTop && a.line < cls.line;
        const bool inBody = a.line >= bodyFirst && a.line <= bodyLast;
        if (aboveDecl || inBody)
            out.push_back(a);
    }
    return out;
}

namespace
{

/** Statement keywords that look like `name (` but are not calls or
 *  method definitions. */
bool
controlKeyword(const std::string &s)
{
    return s == "if" || s == "for" || s == "while" || s == "switch" ||
           s == "catch" || s == "return" || s == "sizeof" ||
           s == "alignof" || s == "decltype" || s == "static_assert" ||
           s == "new" || s == "delete" || s == "operator" ||
           s == "assert" || s == "defined" || s == "throw";
}

/**
 * From the token just past a parameter list's `)`, find the function
 * body's `{`, skipping trailing qualifiers, a trailing return type,
 * and a constructor member-initializer list. Returns npos for plain
 * declarations, `= default/delete/0`, and anything unrecognized.
 */
std::size_t
findBodyBrace(const FileUnit &u, std::size_t j)
{
    const std::size_t npos = static_cast<std::size_t>(-1);
    while (j < u.tokens.size()) {
        const Token &t = u.tok(j);
        if (t.kind == Token::Kind::Punct) {
            if (t.text == "{")
                return j;
            if (t.text == ";" || t.text == "=" || t.text == "}")
                return npos;
            if (t.text == ":") {
                // Constructor member-initializer list: alternating
                // ident chains and balanced (...) / {...} groups, then
                // the body `{` (recognizable by its non-ident
                // predecessor).
                ++j;
                while (j < u.tokens.size()) {
                    const Token &s = u.tok(j);
                    if (s.kind == Token::Kind::Punct) {
                        if (s.text == "(") {
                            j = skipBalanced(u, j, "(", ")");
                            continue;
                        }
                        if (s.text == "{") {
                            const Token &prev = u.tok(j - 1);
                            if (prev.kind == Token::Kind::Ident ||
                                prev.text == ">") {
                                j = skipBalanced(u, j, "{", "}");
                                continue;
                            }
                            return j;
                        }
                        if (s.text == ";")
                            return npos;
                    }
                    ++j;
                }
                return npos;
            }
        }
        ++j;
    }
    return npos;
}

} // namespace

std::vector<MethodDef>
findMethods(const FileUnit &u, const std::vector<ClassDecl> &classes)
{
    const std::size_t npos = static_cast<std::size_t>(-1);
    std::vector<MethodDef> out;

    // Out-of-line definitions: `Class :: method ( ... ) ... {`. The
    // pattern self-selects the last ident pair of a qualified name
    // (`noc::Foo::bar(` only matches at `Foo::bar(`).
    for (std::size_t i = 0; i + 3 < u.tokens.size(); ++i) {
        if (u.tok(i).kind != Token::Kind::Ident ||
            u.tok(i + 1).text != "::" ||
            u.tok(i + 2).kind != Token::Kind::Ident ||
            u.tok(i + 3).text != "(")
            continue;
        const std::size_t close = skipBalanced(u, i + 3, "(", ")");
        const std::size_t body = findBodyBrace(u, close);
        if (body == npos)
            continue;
        MethodDef m;
        m.className = u.tok(i).text;
        m.name = u.tok(i + 2).text;
        m.line = u.tok(i + 2).line;
        m.col = u.tok(i + 2).col;
        m.bodyBegin = body;
        m.bodyEnd = skipBalanced(u, body, "{", "}");
        out.push_back(std::move(m));
    }

    // In-class inline definitions: scan each class body at class scope
    // (jumping over nested class bodies and already-found method
    // bodies, so call expressions inside bodies are never mistaken for
    // definitions).
    std::map<std::size_t, std::size_t> nested; // bodyBegin -> bodyEnd
    for (const ClassDecl &c : classes)
        nested[c.bodyBegin] = c.bodyEnd;
    for (const ClassDecl &cls : classes) {
        std::size_t i = cls.bodyBegin + 1;
        while (i + 1 < cls.bodyEnd && i + 1 < u.tokens.size()) {
            auto n = nested.find(i);
            if (n != nested.end() && n->second <= cls.bodyEnd &&
                i != cls.bodyBegin) {
                i = n->second; // nested class: its own pass covers it
                continue;
            }
            const Token &t = u.tok(i);
            if (t.kind != Token::Kind::Ident ||
                u.tok(i + 1).text != "(" || controlKeyword(t.text) ||
                u.tok(i - 1).text == "::" || u.tok(i - 1).text == "." ||
                u.tok(i - 1).text == "->") {
                ++i;
                continue;
            }
            const std::size_t close = skipBalanced(u, i + 1, "(", ")");
            const std::size_t body = findBodyBrace(u, close);
            if (body == npos || body >= cls.bodyEnd) {
                i = close;
                continue;
            }
            MethodDef m;
            m.className = cls.name;
            m.name = t.text;
            m.line = t.line;
            m.col = t.col;
            m.bodyBegin = body;
            m.bodyEnd = skipBalanced(u, body, "{", "}");
            i = m.bodyEnd;
            out.push_back(std::move(m));
        }
    }
    return out;
}

std::set<std::string>
derivedClosure(const Context &ctx, const std::string &base)
{
    std::set<std::string> closure{base};
    bool grew = true;
    auto scan = [&](const FileUnit &u) {
        for (const ClassDecl &c : ctx.factsOf(u).classes) {
            if (closure.count(c.name))
                continue;
            for (const std::string &b : c.baseNames) {
                if (closure.count(b)) {
                    closure.insert(c.name);
                    grew = true;
                    break;
                }
            }
        }
    };
    while (grew) {
        grew = false;
        for (const FileUnit &u : ctx.units)
            scan(u);
        for (const FileUnit &u : ctx.auxUnits)
            scan(u);
    }
    return closure;
}

int
annotationBlockTop(const FileUnit &u, int line)
{
    int top = line;
    while (u.commentOnLine.count(top - 1))
        --top;
    return top;
}

bool
suppressed(const FileUnit &u, int line, const std::string &check)
{
    auto matches = [&](const std::string &text, const char *marker) {
        std::size_t pos = text.find(marker);
        if (pos == std::string::npos)
            return false;
        pos += std::string(marker).size();
        if (pos >= text.size() || text[pos] != '(')
            return true; // bare NOLINT: suppress everything
        std::size_t close = text.find(')', pos);
        if (close == std::string::npos)
            return true;
        const std::string list = text.substr(pos + 1, close - pos - 1);
        return list.find(check) != std::string::npos ||
               list.find('*') != std::string::npos;
    };
    auto it = u.commentOnLine.find(line);
    if (it != u.commentOnLine.end() &&
        it->second.find("NOLINTNEXTLINE") == std::string::npos &&
        matches(it->second, "NOLINT"))
        return true;
    it = u.commentOnLine.find(line - 1);
    if (it != u.commentOnLine.end() &&
        matches(it->second, "NOLINTNEXTLINE"))
        return true;
    return false;
}

namespace
{

/** Suppressions that absorbed a diagnostic this run, keyed by the
 *  governed (flagged) line. Process-global: one lint run per process. */
std::set<std::tuple<std::string, int, std::string>> g_suppressionHits;

} // namespace

const std::set<std::tuple<std::string, int, std::string>> &
suppressionHits()
{
    return g_suppressionHits;
}

void
report(const FileUnit &u, int line, int col, const std::string &check,
       const std::string &message, std::vector<Diagnostic> &out)
{
    if (suppressed(u, line, check)) {
        g_suppressionHits.emplace(u.path, line, check);
        return;
    }
    out.push_back({u.path, line, col, message, check});
}

void
checkStaleSuppression(const Context &ctx,
                      const std::set<std::string> &ranChecks,
                      std::vector<Diagnostic> &out)
{
    const std::set<std::string> known = {
        kCheckUnorderedIteration, kCheckRngDiscipline,
        kCheckClockedComponent,   kCheckSteadyStateAlloc,
        kCheckPhaseDiscipline,    kCheckCrossDomainChannel,
    };
    for (const FileUnit &u : ctx.units) {
        for (const auto &[line, text] : u.commentOnLine) {
            // A block comment's text is replicated onto every line it
            // spans; audit only the first line of each replicated run.
            auto prev = u.commentOnLine.find(line - 1);
            if (prev != u.commentOnLine.end() && prev->second == text)
                continue;
            std::size_t pos = 0;
            while ((pos = text.find("NOLINT", pos)) !=
                   std::string::npos) {
                int governed = line;
                std::size_t after = pos + 6;
                if (text.compare(pos, 14, "NOLINTNEXTLINE") == 0) {
                    governed = line + 1;
                    after = pos + 14;
                }
                pos = after;
                if (after >= text.size() || text[after] != '(')
                    continue; // bare NOLINT: not auditable
                const std::size_t close = text.find(')', after);
                if (close == std::string::npos)
                    continue;
                std::string list =
                    text.substr(after + 1, close - after - 1);
                if (list.find('*') != std::string::npos)
                    continue; // wildcard: not auditable
                // Audit each named loft- check in the list.
                std::size_t p = 0;
                while (p <= list.size()) {
                    std::size_t comma = list.find(',', p);
                    if (comma == std::string::npos)
                        comma = list.size();
                    std::string name = list.substr(p, comma - p);
                    p = comma + 1;
                    const std::size_t b =
                        name.find_first_not_of(" \t");
                    if (b == std::string::npos)
                        continue;
                    const std::size_t e =
                        name.find_last_not_of(" \t");
                    name = name.substr(b, e - b + 1);
                    if (name.compare(0, 5, "loft-") != 0 ||
                        name == kCheckStaleSuppression)
                        continue;
                    if (!known.count(name)) {
                        report(u, line, 1, kCheckStaleSuppression,
                               "NOLINT names unknown check '" + name +
                                   "'; remove or fix the suppression",
                               out);
                        continue;
                    }
                    if (!ranChecks.count(name))
                        continue; // can't judge: check didn't run
                    if (!g_suppressionHits.count(
                            {u.path, governed, name}))
                        report(u, line, 1, kCheckStaleSuppression,
                               "stale suppression: '" + name +
                                   "' no longer fires at this site; "
                                   "remove the NOLINT (suppressions "
                                   "are shrink-only)",
                               out);
                }
            }
        }
    }
}

} // namespace loft_tidy
