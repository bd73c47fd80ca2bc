"""Recursive-descent parser for the class-hierarchy subset of C++.

The subset covers the paper's example programs and typical hierarchy
headers: class/struct definitions with (virtual, access-qualified) bases;
data members, member functions (bodies skipped), static members,
typedefs, in-class enums, nested classes, constructors/destructors; and
free functions whose bodies are scanned for variable declarations and
member-access expressions (``e.m``, ``p->m()``, ``T::m``).

Real-header growth for the streaming ingestion pipeline:

* ``namespace N { ... }`` blocks are lowered to qualified class names
  (``N::C``), with base names resolved innermost-scope-first against
  the classes declared so far — including classes from *earlier files*
  of a multi-file translation unit (pass one shared ``known_classes``
  set to every :class:`Parser` of the unit).
* ``template`` declarations (class and function templates, at file or
  member scope) are skipped opaquely without desyncing the token
  stream.
* Type texts may be qualified (``ns::Base``) and carry template
  argument lists (``Vec<int>``), which are skipped.
* :meth:`Parser.iter_declarations` streams top-level declarations as
  they complete, so a consumer can lower each class into a live
  hierarchy without waiting for the whole unit.

Every skip loop is EOF-guarded: truncated input raises
:class:`ParseError` (with file/line) rather than hanging or silently
dropping declarations.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.frontend.cpp_ast import (
    AccessOp,
    BaseSpecifier,
    ClassDecl,
    FunctionDef,
    MemberAccess,
    MemberDecl,
    TopLevel,
    TranslationUnit,
    VarDecl,
)
from repro.frontend.errors import ParseError
from repro.frontend.lexer import Token, TokenKind, tokenize
from repro.hierarchy.members import Access, MemberKind

_TYPE_KEYWORDS = frozenset(
    {
        "void",
        "int",
        "bool",
        "char",
        "float",
        "double",
        "long",
        "short",
        "signed",
        "unsigned",
        "const",
    }
)

_ACCESS_KEYWORDS = {
    "public": Access.PUBLIC,
    "protected": Access.PROTECTED,
    "private": Access.PRIVATE,
}


class Parser:
    """Single-use recursive-descent parser over a token buffer.

    ``filename`` stamps every diagnostic location.  ``known_classes``
    is the set of (qualified) class names visible to base-name
    resolution; the parser adds every class it defines, so sharing one
    set across the parsers of a multi-file unit gives cross-file base
    resolution.
    """

    def __init__(
        self,
        source: str,
        *,
        filename: Optional[str] = None,
        known_classes: Optional[set] = None,
    ) -> None:
        self._tokens = tokenize(source, filename)
        self._index = 0
        self._namespaces: list[str] = []
        self._known = known_classes if known_classes is not None else set()

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._index]

    def _peek(self, ahead: int = 1) -> Token:
        index = min(self._index + ahead, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._current
        if token.kind is not TokenKind.EOF:
            self._index += 1
        return token

    def _expect_punct(self, text: str) -> Token:
        if not self._current.is_punct(text):
            raise ParseError(
                f"expected {text!r}, found '{self._current}'",
                self._current.location,
            )
        return self._advance()

    def _expect_ident(self, what: str) -> Token:
        if self._current.kind is not TokenKind.IDENT:
            raise ParseError(
                f"expected {what}, found '{self._current}'",
                self._current.location,
            )
        return self._advance()

    def _check_eof(self, what: str) -> None:
        """Uniform EOF guard for every skip loop: truncated input must
        raise, never livelock (``_advance`` refuses to move past EOF)."""
        token = self._current
        if token.kind is TokenKind.EOF:
            raise ParseError(
                f"unexpected end of file {what}", token.location
            )

    def _skip_balanced(self, open_text: str, close_text: str) -> None:
        """Skip past a balanced pair whose opener is the current token."""
        self._expect_punct(open_text)
        depth = 1
        while depth > 0:
            token = self._advance()
            if token.kind is TokenKind.EOF:
                raise ParseError(
                    f"unbalanced {open_text!r}", token.location
                )
            if token.is_punct(open_text):
                depth += 1
            elif token.is_punct(close_text):
                depth -= 1

    def _skip_angles(self) -> None:
        """Skip a balanced ``<...>`` template argument/parameter list
        whose ``<`` is the current token (``>>`` closes two levels, as
        in ``Vec<Vec<int>>``)."""
        opener = self._expect_punct("<")
        depth = 1
        while depth > 0:
            token = self._current
            if token.kind is TokenKind.EOF:
                raise ParseError("unbalanced '<'", opener.location)
            if token.is_punct("("):
                self._skip_balanced("(", ")")
                continue
            self._advance()
            if token.is_punct("<"):
                depth += 1
            elif token.is_punct(">"):
                depth -= 1
            elif token.is_punct(">>"):
                depth -= 2

    def _skip_to_semicolon(self) -> None:
        while not self._current.is_punct(";"):
            self._check_eof("in declaration (expected ';')")
            if self._current.is_punct("{"):
                self._skip_balanced("{", "}")
                continue
            self._advance()
        self._advance()

    # ------------------------------------------------------------------
    # Translation unit
    # ------------------------------------------------------------------

    def parse(self) -> TranslationUnit:
        unit = TranslationUnit()
        unit.declarations.extend(self.iter_declarations())
        return unit

    def iter_declarations(self) -> Iterator[TopLevel]:
        """Stream top-level declarations as each one completes.

        Namespace blocks are dissolved here: their classes are yielded
        individually under qualified names, as soon as each class body
        closes — this is what lets the ingestion pipeline bring a live
        table current *while* a large file is still being parsed.
        """
        while True:
            token = self._current
            if token.kind is TokenKind.EOF:
                if self._namespaces:
                    raise ParseError(
                        "unterminated namespace "
                        f"{'::'.join(self._namespaces)!r}",
                        token.location,
                    )
                return
            if token.is_keyword("namespace"):
                self._parse_namespace_head()
                continue
            if token.is_punct("}") and self._namespaces:
                self._advance()
                self._namespaces.pop()
                if self._current.is_punct(";"):
                    self._advance()  # tolerate 'namespace N { ... };'
                continue
            declaration = self._parse_top_level()
            if declaration is not None:
                yield declaration

    def _parse_namespace_head(self) -> None:
        self._advance()  # 'namespace'
        token = self._current
        if token.is_punct("{"):
            raise ParseError(
                "anonymous namespaces are outside the subset "
                "(name the namespace)",
                token.location,
            )
        name = self._expect_ident("namespace name")
        parts = [name.text]
        while self._current.is_punct("::"):
            # C++17 nested namespace definition: namespace a::b { ... }
            self._advance()
            parts.append(self._expect_ident("namespace name").text)
        self._expect_punct("{")
        self._namespaces.extend(parts)
        # One popper per opened scope: a::b pushes two, but only one '}'
        # closes the definition, so fold the parts into a single entry.
        if len(parts) > 1:
            for _ in parts:
                self._namespaces.pop()
            self._namespaces.append("::".join(parts))

    @property
    def _prefix(self) -> str:
        return "::".join(self._namespaces) + "::" if self._namespaces else ""

    def _resolve_class_name(self, name: str) -> str:
        """Resolve a (possibly qualified) class reference against the
        enclosing namespace scopes, innermost first, falling back to
        the name as written (sema diagnoses unknown bases)."""
        scopes = self._namespaces
        for depth in range(len(scopes), 0, -1):
            candidate = "::".join(scopes[:depth]) + "::" + name
            if candidate in self._known:
                return candidate
        return name

    def _register_class(self, decl: ClassDecl, prefix: str) -> None:
        qualified = prefix + decl.name if prefix else decl.name
        self._known.add(qualified)
        for nested in decl.nested:
            self._register_class(nested, qualified + "::")

    def _parse_top_level(self) -> Optional[TopLevel]:
        token = self._current
        if token.is_keyword("class", "struct"):
            if self._peek(2).is_punct(";"):
                # Forward declaration: class A; / struct A; — no
                # definition; the later definition (if any) declares it.
                self._advance()
                self._expect_ident("class name")
                self._expect_punct(";")
                return None
            decl = self._parse_class()
            prefix = self._prefix
            self._register_class(decl, prefix)
            if prefix:
                decl.name = prefix + decl.name
            return decl
        if token.is_keyword("template"):
            self._skip_template()
            return None
        if token.is_keyword("typedef"):
            self._skip_to_semicolon()
            return None
        if token.is_keyword("using"):
            # using namespace N; / using alias = T; — no effect on the
            # hierarchy subset, skipped whole.
            self._skip_to_semicolon()
            return None
        if token.is_keyword("enum"):
            self._skip_to_semicolon()
            return None
        if token.is_keyword("inline"):
            self._advance()
            return self._parse_top_level()
        if token.is_punct(";"):
            self._advance()
            return None
        if token.is_keyword(
            "virtual", "public", "protected", "private", "typename"
        ) or token.kind in (TokenKind.NUMBER, TokenKind.STRING):
            raise ParseError(
                f"unsupported top-level construct starting at '{token}'",
                token.location,
            )
        if token.is_punct("}"):
            raise ParseError(
                "stray '}' at top level (unbalanced braces?)",
                token.location,
            )
        return self._parse_function_or_variable()

    def _skip_template(self) -> None:
        """Skip an entire template declaration — parameter list plus
        the templated entity — without desyncing.  Class templates end
        at the ``;`` after the body; function templates end at the
        body's closing ``}``."""
        keyword = self._advance()  # 'template'
        if self._current.is_punct("<"):
            self._skip_angles()
        while True:
            token = self._current
            if token.kind is TokenKind.EOF:
                raise ParseError(
                    "unexpected end of file in template declaration "
                    f"(started at {keyword.location})",
                    token.location,
                )
            if token.is_punct(";"):
                self._advance()
                return
            if token.is_punct("{"):
                self._skip_balanced("{", "}")
                if self._current.is_punct(";"):
                    self._advance()
                return
            if token.is_punct("("):
                self._skip_balanced("(", ")")
                continue
            if token.is_punct("<"):
                self._skip_angles()
                continue
            self._advance()

    # ------------------------------------------------------------------
    # Classes
    # ------------------------------------------------------------------

    def _parse_class(self) -> ClassDecl:
        keyword = self._advance()
        is_struct = keyword.text == "struct"
        name = self._expect_ident("class name")
        decl = ClassDecl(
            name=name.text,
            is_struct=is_struct,
            bases=[],
            members=[],
            nested=[],
            location=keyword.location,
        )
        if self._current.is_punct(":"):
            self._advance()
            decl.bases.append(self._parse_base_specifier(is_struct))
            while self._current.is_punct(","):
                self._advance()
                decl.bases.append(self._parse_base_specifier(is_struct))
        self._expect_punct("{")
        self._parse_member_sequence(decl)
        self._expect_punct("}")
        self._expect_punct(";")
        return decl

    def _parse_base_specifier(self, is_struct: bool) -> BaseSpecifier:
        location = self._current.location
        virtual = False
        access = Access.PUBLIC if is_struct else Access.PRIVATE
        # 'virtual' and the access specifier may come in either order.
        while True:
            if self._current.is_keyword("virtual"):
                virtual = True
                self._advance()
            elif self._current.is_keyword(*_ACCESS_KEYWORDS):
                access = _ACCESS_KEYWORDS[self._advance().text]
            else:
                break
        name = self._parse_qualified_name("base class name")
        if self._current.is_punct("<"):
            self._skip_angles()  # Base<T> — opaque, like templates
        return BaseSpecifier(
            name=self._resolve_class_name(name),
            virtual=virtual,
            access=access,
            location=location,
        )

    def _parse_qualified_name(self, what: str) -> str:
        parts = [self._expect_ident(what).text]
        while self._current.is_punct("::") and (
            self._peek().kind is TokenKind.IDENT
        ):
            self._advance()
            parts.append(self._advance().text)
        return "::".join(parts)

    def _parse_member_sequence(self, decl: ClassDecl) -> None:
        access = decl.default_access
        while not self._current.is_punct("}"):
            token = self._current
            if token.kind is TokenKind.EOF:
                raise ParseError(
                    f"unterminated body of {decl.name!r}", token.location
                )
            if token.is_keyword(*_ACCESS_KEYWORDS) and self._peek().is_punct(
                ":"
            ):
                access = _ACCESS_KEYWORDS[self._advance().text]
                self._advance()  # ':'
                continue
            if token.is_keyword("typedef"):
                decl.members.append(self._parse_typedef(access))
                continue
            if token.is_keyword("using"):
                decl.members.append(self._parse_using(access))
                continue
            if token.is_keyword("enum"):
                decl.members.extend(self._parse_enum(access))
                continue
            if token.is_keyword("template"):
                self._skip_template()  # opaque member template
                continue
            if token.is_keyword("class", "struct"):
                if self._peek(2).is_punct(";"):
                    # Nested forward declaration: class Inner;
                    self._advance()
                    self._expect_ident("class name")
                    self._expect_punct(";")
                    continue
                nested = self._parse_class()
                decl.nested.append(nested)
                decl.members.append(
                    MemberDecl(
                        name=nested.name,
                        kind=MemberKind.TYPE,
                        is_static=False,
                        access=access,
                        type_text="class",
                        location=nested.location,
                    )
                )
                continue
            if token.is_punct("~") or (
                token.kind is TokenKind.IDENT
                and token.text == decl.name
                and self._peek().is_punct("(")
            ):
                self._skip_special_member()
                continue
            decl.members.extend(self._parse_member_declaration(access))

    def _parse_typedef(self, access: Access) -> MemberDecl:
        keyword = self._advance()
        type_text = self._parse_type_text()
        name = self._expect_ident("typedef name")
        self._skip_to_semicolon()
        return MemberDecl(
            name=name.text,
            kind=MemberKind.TYPE,
            is_static=False,
            access=access,
            type_text=type_text,
            location=keyword.location,
        )

    def _parse_using(self, access: Access) -> MemberDecl:
        keyword = self._advance()
        qualified = self._parse_qualified_name("base class name")
        if "::" not in qualified:
            raise ParseError(
                "expected a qualified member name "
                f"(Base::member) after 'using', found {qualified!r}",
                keyword.location,
            )
        base, _, name = qualified.rpartition("::")
        self._skip_to_semicolon()
        return MemberDecl(
            name=name,
            kind=MemberKind.DATA,  # refined by sema from the base's decl
            is_static=False,
            access=access,
            type_text="",
            location=keyword.location,
            using_from=self._resolve_class_name(base),
        )

    def _parse_enum(self, access: Access) -> list[MemberDecl]:
        keyword = self._advance()
        del keyword
        members: list[MemberDecl] = []
        enum_name = None
        if self._current.kind is TokenKind.IDENT:
            enum_name = self._advance()
            members.append(
                MemberDecl(
                    name=enum_name.text,
                    kind=MemberKind.TYPE,
                    is_static=False,
                    access=access,
                    type_text="enum",
                    location=enum_name.location,
                )
            )
        self._expect_punct("{")
        while not self._current.is_punct("}"):
            enumerator = self._expect_ident("enumerator name")
            members.append(
                MemberDecl(
                    name=enumerator.text,
                    kind=MemberKind.ENUMERATOR,
                    is_static=False,
                    access=access,
                    type_text=enum_name.text if enum_name else "enum",
                    location=enumerator.location,
                )
            )
            if self._current.is_punct("="):
                self._advance()
                while not self._current.is_punct(",", "}"):
                    self._check_eof("in enumerator initializer")
                    if self._current.is_punct("("):
                        self._skip_balanced("(", ")")
                        continue
                    self._advance()
            if self._current.is_punct(","):
                self._advance()
        self._expect_punct("}")
        self._expect_punct(";")
        return members

    def _skip_special_member(self) -> None:
        """Skip a constructor or destructor declaration/definition.

        Shapes: ``A();``, ``A() {}``, ``~A() {}``, ``A() : x(1), B() {}``
        (initializer list), ``A(int v = 0);`` (default arguments).  The
        initializer list is skipped only up to the body's ``{``; the
        balanced body ends the member — earlier code fell into
        ``_skip_to_semicolon`` here, which swallowed the body *and kept
        consuming until the next ';'*, silently deleting the member
        declaration that followed the constructor."""
        if self._current.is_punct("~"):
            self._advance()
            self._expect_ident("destructor name")
        else:
            self._advance()  # the class-name token
        self._skip_balanced("(", ")")
        if self._current.is_punct(":"):
            self._advance()
            while not self._current.is_punct("{"):
                self._check_eof("in constructor initializer list")
                if self._current.is_punct("("):
                    self._skip_balanced("(", ")")
                    continue
                if self._current.is_punct(";", "}"):
                    raise ParseError(
                        "constructor initializer list without a body",
                        self._current.location,
                    )
                self._advance()
        if self._current.is_punct("{"):
            self._skip_balanced("{", "}")
            if self._current.is_punct(";"):
                self._advance()
        else:
            self._skip_to_semicolon()

    def _parse_member_declaration(self, access: Access) -> list[MemberDecl]:
        location = self._current.location
        is_static = False
        # 'virtual' on a member function is irrelevant to lookup (paper,
        # Section 2); 'inline' likewise.  Both are consumed and dropped.
        while self._current.is_keyword("static", "virtual", "inline"):
            if self._current.text == "static":
                is_static = True
            self._advance()
        type_text = self._parse_type_text()
        members: list[MemberDecl] = []
        while True:
            while self._current.is_punct("*", "&"):
                self._advance()
            name = self._expect_ident("member name")
            if self._current.is_punct("("):
                self._skip_balanced("(", ")")
                if self._current.is_keyword("const"):
                    self._advance()
                kind = MemberKind.FUNCTION
                if self._current.is_punct("{"):
                    # Inline method body: balanced skip ends the member.
                    self._skip_balanced("{", "}")
                    members.append(
                        MemberDecl(
                            name.text, kind, is_static, access, type_text,
                            location,
                        )
                    )
                    if self._current.is_punct(";"):
                        self._advance()
                    return members
            else:
                kind = MemberKind.DATA
                while self._current.is_punct("["):
                    self._skip_balanced("[", "]")
            members.append(
                MemberDecl(
                    name.text, kind, is_static, access, type_text, location
                )
            )
            if self._current.is_punct(","):
                self._advance()
                continue
            self._skip_to_semicolon()
            return members

    def _parse_type_text(self) -> str:
        parts = []
        while self._current.is_keyword(*_TYPE_KEYWORDS):
            parts.append(self._advance().text)
        if not parts:
            if self._current.kind is not TokenKind.IDENT:
                raise ParseError(
                    f"expected a type, found '{self._current}'",
                    self._current.location,
                )
            parts.append(self._parse_qualified_name("type name"))
            if self._current.is_punct("<"):
                self._skip_angles()  # template arguments are opaque
        elif (
            parts == ["const"] and self._current.kind is TokenKind.IDENT
        ):
            parts.append(self._parse_qualified_name("type name"))
            if self._current.is_punct("<"):
                self._skip_angles()
        return " ".join(parts)

    # ------------------------------------------------------------------
    # Functions and file-scope variables
    # ------------------------------------------------------------------

    def _parse_function_or_variable(self):
        location = self._current.location
        # Optional return/variable type; 'main() {...}' has none.
        type_text = None
        if self._current.is_keyword(*_TYPE_KEYWORDS):
            type_text = self._parse_type_text()
        elif (
            self._current.kind is TokenKind.IDENT
            and not self._peek().is_punct("(")
        ):
            type_text = self._parse_type_text()
        is_pointer = False
        while self._current.is_punct("*", "&"):
            is_pointer = True
            self._advance()
        name = self._expect_ident("declarator name")
        if self._current.is_punct("("):
            self._skip_balanced("(", ")")
            function = FunctionDef(name=name.text, location=location)
            if self._current.is_punct("{"):
                self._parse_function_body(function)
            else:
                self._skip_to_semicolon()
            return function
        if type_text is None:
            raise ParseError(
                f"expected a declaration, found '{name}'", location
            )
        self._skip_to_semicolon()
        return VarDecl(
            name=name.text,
            type_name=self._resolve_class_name(type_text),
            is_pointer=is_pointer,
            location=location,
        )

    def _parse_function_body(self, function: FunctionDef) -> None:
        self._expect_punct("{")
        depth = 1
        while depth > 0:
            token = self._current
            if token.kind is TokenKind.EOF:
                raise ParseError("unterminated function body", token.location)
            if token.is_punct("{"):
                depth += 1
                self._advance()
                continue
            if token.is_punct("}"):
                depth -= 1
                self._advance()
                continue
            if token.kind is TokenKind.IDENT:
                self._parse_body_statement(function)
                continue
            self._advance()

    def _parse_body_statement(self, function: FunctionDef) -> None:
        first = self._advance()
        nxt = self._current
        if nxt.is_punct(":"):  # '::' lexes as its own token, so this is a label
            self._advance()  # a statement label such as 's1:'
            return
        if nxt.is_punct(".", "->", "::"):
            op = {
                ".": AccessOp.DOT,
                "->": AccessOp.ARROW,
                "::": AccessOp.SCOPE,
            }[self._advance().text]
            member = self._expect_ident("member name")
            qualifier = None
            if op is not AccessOp.SCOPE and self._current.is_punct("::"):
                # Qualified access: x.Base::m / p->Base::m.
                self._advance()
                qualifier = member.text
                member = self._expect_ident("member name")
            object_name = first.text
            if op is AccessOp.SCOPE:
                object_name = self._resolve_class_name(object_name)
            function.accesses.append(
                MemberAccess(
                    object_name=object_name,
                    member=member.text,
                    op=op,
                    location=first.location,
                    qualifier=qualifier,
                )
            )
            self._skip_statement_rest()
            return
        if nxt.kind is TokenKind.IDENT or nxt.is_punct("*", "&"):
            is_pointer = False
            while self._current.is_punct("*", "&"):
                is_pointer = True
                self._advance()
            name = self._expect_ident("variable name")
            function.variables.append(
                VarDecl(
                    name=name.text,
                    type_name=self._resolve_class_name(first.text),
                    is_pointer=is_pointer,
                    location=first.location,
                )
            )
            self._skip_statement_rest()
            return
        self._skip_statement_rest()

    def _skip_statement_rest(self) -> None:
        while not self._current.is_punct(";", "}"):
            if self._current.kind is TokenKind.EOF:
                # The enclosing _parse_function_body loop raises the
                # better "unterminated function body" diagnostic.
                return
            if self._current.is_punct("{"):
                self._skip_balanced("{", "}")
                continue
            self._advance()
        if self._current.is_punct(";"):
            self._advance()


def parse(
    source: str,
    *,
    filename: Optional[str] = None,
    known_classes: Optional[set] = None,
) -> TranslationUnit:
    """Parse a translation unit from source text."""
    return Parser(
        source, filename=filename, known_classes=known_classes
    ).parse()
