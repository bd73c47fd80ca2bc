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
from repro.frontend.lexer import TokenKind, scan
from repro.frontend.source import SourceLocation
from repro.hierarchy.members import Access, MemberKind

_IDENT = TokenKind.IDENT

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

_ACCESS_OPS = {
    ".": AccessOp.DOT,
    "->": AccessOp.ARROW,
    "::": AccessOp.SCOPE,
}


class Parser:
    """Single-use recursive-descent parser over a token buffer.

    ``filename`` stamps every diagnostic location.  ``known_classes``
    is the set of (qualified) class names visible to base-name
    resolution; the parser adds every class it defines, so sharing one
    set across the parsers of a multi-file unit gives cross-file base
    resolution.

    The buffer is the lexer's parallel token lists, walked by index.
    Punctuators and keywords are tested by text alone, which the lexer
    guarantees identifies them (see :mod:`repro.frontend.lexer`).  EOF
    is the last index and is never consumed: the index steps only past
    a token just tested to be a particular text or kind, or after an
    EOF guard.  A :class:`SourceLocation` is built only for an AST node
    or a :class:`ParseError`.
    """

    def __init__(
        self,
        source: str,
        *,
        filename: Optional[str] = None,
        known_classes: Optional[set] = None,
    ) -> None:
        self._texts, self._kinds, self._offsets, self._lines = scan(
            source, filename
        )
        self._index = 0
        self._eof = len(self._texts) - 1
        self._namespaces: list[str] = []
        self._known = known_classes if known_classes is not None else set()

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------

    def _location(self, index: int) -> SourceLocation:
        return self._lines.location(self._offsets[index])

    def _found(self) -> str:
        """The current token as diagnostics quote it."""
        return self._texts[self._index] or "<eof>"

    def _expect_punct(self, text: str) -> None:
        index = self._index
        if self._texts[index] != text:
            raise ParseError(
                f"expected {text!r}, found '{self._found()}'",
                self._location(index),
            )
        self._index = index + 1

    def _expect_ident(self, what: str) -> str:
        """Consume an identifier and return its text."""
        index = self._index
        if self._kinds[index] is not _IDENT:
            raise ParseError(
                f"expected {what}, found '{self._found()}'",
                self._location(index),
            )
        self._index = index + 1
        return self._texts[index]

    def _check_eof(self, what: str) -> None:
        """Uniform EOF guard for every skip loop: truncated input must
        raise, never livelock or step past EOF."""
        if self._index == self._eof:
            raise ParseError(
                f"unexpected end of file {what}", self._location(self._eof)
            )

    def _skip_balanced(self, open_text: str, close_text: str) -> None:
        """Skip past a balanced pair whose opener is the current token."""
        self._expect_punct(open_text)
        texts, eof = self._texts, self._eof
        index = self._index
        depth = 1
        while depth > 0:
            if index == eof:
                raise ParseError(
                    f"unbalanced {open_text!r}", self._location(index)
                )
            text = texts[index]
            index += 1
            if text == open_text:
                depth += 1
            elif text == close_text:
                depth -= 1
        self._index = index

    def _skip_angles(self) -> None:
        """Skip a balanced ``<...>`` template argument/parameter list
        whose ``<`` is the current token (``>>`` closes two levels, as
        in ``Vec<Vec<int>>``)."""
        opener = self._index
        self._expect_punct("<")
        texts = self._texts
        depth = 1
        while depth > 0:
            index = self._index
            if index == self._eof:
                raise ParseError("unbalanced '<'", self._location(opener))
            text = texts[index]
            if text == "(":
                self._skip_balanced("(", ")")
                continue
            self._index = index + 1
            if text == "<":
                depth += 1
            elif text == ">":
                depth -= 1
            elif text == ">>":
                depth -= 2

    def _skip_to_semicolon(self) -> None:
        texts = self._texts
        while texts[self._index] != ";":
            self._check_eof("in declaration (expected ';')")
            if texts[self._index] == "{":
                self._skip_balanced("{", "}")
                continue
            self._index += 1
        self._index += 1

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
        texts = self._texts
        while True:
            index = self._index
            if index == self._eof:
                if self._namespaces:
                    raise ParseError(
                        "unterminated namespace "
                        f"{'::'.join(self._namespaces)!r}",
                        self._location(index),
                    )
                return
            text = texts[index]
            if text == "namespace":
                self._parse_namespace_head()
                continue
            if text == "}" and self._namespaces:
                self._index = index + 1
                self._namespaces.pop()
                if texts[self._index] == ";":
                    self._index += 1  # tolerate 'namespace N { ... };'
                continue
            declaration = self._parse_top_level()
            if declaration is not None:
                yield declaration

    def _parse_namespace_head(self) -> None:
        self._index += 1  # 'namespace'
        if self._texts[self._index] == "{":
            raise ParseError(
                "anonymous namespaces are outside the subset "
                "(name the namespace)",
                self._location(self._index),
            )
        parts = [self._expect_ident("namespace name")]
        while self._texts[self._index] == "::":
            # C++17 nested namespace definition: namespace a::b { ... }
            self._index += 1
            parts.append(self._expect_ident("namespace name"))
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

    def _is_forward_declaration(self) -> bool:
        """Whether the current ``class``/``struct`` starts ``class A;``."""
        return self._texts[min(self._index + 2, self._eof)] == ";"

    def _skip_forward_declaration(self) -> None:
        # No definition; the later definition (if any) declares it.
        self._index += 1  # 'class' / 'struct'
        self._expect_ident("class name")
        self._expect_punct(";")

    def _parse_top_level(self) -> Optional[TopLevel]:
        index = self._index
        text = self._texts[index]
        if text in ("class", "struct"):
            if self._is_forward_declaration():
                self._skip_forward_declaration()
                return None
            decl = self._parse_class()
            prefix = self._prefix
            self._register_class(decl, prefix)
            if prefix:
                decl.name = prefix + decl.name
            return decl
        if text == "template":
            self._skip_template()
            return None
        if text in ("typedef", "using", "enum"):
            # using namespace N; / using alias = T; — no effect on the
            # hierarchy subset, skipped whole, as are typedefs and enums.
            self._skip_to_semicolon()
            return None
        if text == "inline":
            self._index = index + 1
            return self._parse_top_level()
        if text == ";":
            self._index = index + 1
            return None
        if text in (
            "virtual", "public", "protected", "private", "typename"
        ) or self._kinds[index] in (TokenKind.NUMBER, TokenKind.STRING):
            raise ParseError(
                f"unsupported top-level construct starting at '{text}'",
                self._location(index),
            )
        if text == "}":
            raise ParseError(
                "stray '}' at top level (unbalanced braces?)",
                self._location(index),
            )
        return self._parse_function_or_variable()

    def _skip_template(self) -> None:
        """Skip an entire template declaration — parameter list plus
        the templated entity — without desyncing.  Class templates end
        at the ``;`` after the body; function templates end at the
        body's closing ``}``."""
        keyword = self._index
        self._index += 1  # 'template'
        texts = self._texts
        if texts[self._index] == "<":
            self._skip_angles()
        while True:
            index = self._index
            if index == self._eof:
                raise ParseError(
                    "unexpected end of file in template declaration "
                    f"(started at {self._location(keyword)})",
                    self._location(index),
                )
            text = texts[index]
            if text == ";":
                self._index = index + 1
                return
            if text == "{":
                self._skip_balanced("{", "}")
                if texts[self._index] == ";":
                    self._index += 1
                return
            if text == "(":
                self._skip_balanced("(", ")")
                continue
            if text == "<":
                self._skip_angles()
                continue
            self._index = index + 1

    # ------------------------------------------------------------------
    # Classes
    # ------------------------------------------------------------------

    def _parse_class(self) -> ClassDecl:
        keyword = self._index
        self._index += 1
        is_struct = self._texts[keyword] == "struct"
        decl = ClassDecl(
            name=self._expect_ident("class name"),
            is_struct=is_struct,
            bases=[],
            members=[],
            nested=[],
            location=self._location(keyword),
        )
        texts = self._texts
        if texts[self._index] == ":":
            self._index += 1
            decl.bases.append(self._parse_base_specifier(is_struct))
            while texts[self._index] == ",":
                self._index += 1
                decl.bases.append(self._parse_base_specifier(is_struct))
        self._expect_punct("{")
        self._parse_member_sequence(decl)
        self._expect_punct("}")
        self._expect_punct(";")
        return decl

    def _parse_base_specifier(self, is_struct: bool) -> BaseSpecifier:
        location = self._location(self._index)
        virtual = False
        access = Access.PUBLIC if is_struct else Access.PRIVATE
        texts = self._texts
        # 'virtual' and the access specifier may come in either order.
        while True:
            text = texts[self._index]
            if text == "virtual":
                virtual = True
            elif text in _ACCESS_KEYWORDS:
                access = _ACCESS_KEYWORDS[text]
            else:
                break
            self._index += 1
        name = self._parse_qualified_name("base class name")
        if texts[self._index] == "<":
            self._skip_angles()  # Base<T> — opaque, like templates
        return BaseSpecifier(
            name=self._resolve_class_name(name),
            virtual=virtual,
            access=access,
            location=location,
        )

    def _parse_qualified_name(self, what: str) -> str:
        parts = [self._expect_ident(what)]
        texts, kinds = self._texts, self._kinds
        index = self._index
        while texts[index] == "::" and kinds[index + 1] is _IDENT:
            parts.append(texts[index + 1])
            index += 2
        self._index = index
        return "::".join(parts)

    def _parse_member_sequence(self, decl: ClassDecl) -> None:
        access = decl.default_access
        texts = self._texts
        while True:
            index = self._index
            text = texts[index]
            if text == "}":
                return
            if index == self._eof:
                raise ParseError(
                    f"unterminated body of {decl.name!r}",
                    self._location(index),
                )
            if text in _ACCESS_KEYWORDS and texts[index + 1] == ":":
                access = _ACCESS_KEYWORDS[text]
                self._index = index + 2  # the keyword and its ':'
                continue
            if text == "typedef":
                decl.members.append(self._parse_typedef(access))
                continue
            if text == "using":
                decl.members.append(self._parse_using(access))
                continue
            if text == "enum":
                decl.members.extend(self._parse_enum(access))
                continue
            if text == "template":
                self._skip_template()  # opaque member template
                continue
            if text in ("class", "struct"):
                if self._is_forward_declaration():
                    self._skip_forward_declaration()  # class Inner;
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
            if text == "~" or (
                text == decl.name
                and self._kinds[index] is _IDENT
                and texts[index + 1] == "("
            ):
                self._skip_special_member()
                continue
            decl.members.extend(self._parse_member_declaration(access))

    def _parse_typedef(self, access: Access) -> MemberDecl:
        keyword = self._index
        self._index += 1
        type_text = self._parse_type_text()
        name = self._expect_ident("typedef name")
        self._skip_to_semicolon()
        return MemberDecl(
            name=name,
            kind=MemberKind.TYPE,
            is_static=False,
            access=access,
            type_text=type_text,
            location=self._location(keyword),
        )

    def _parse_using(self, access: Access) -> MemberDecl:
        location = self._location(self._index)
        self._index += 1
        qualified = self._parse_qualified_name("base class name")
        if "::" not in qualified:
            raise ParseError(
                "expected a qualified member name "
                f"(Base::member) after 'using', found {qualified!r}",
                location,
            )
        base, _, name = qualified.rpartition("::")
        self._skip_to_semicolon()
        return MemberDecl(
            name=name,
            kind=MemberKind.DATA,  # refined by sema from the base's decl
            is_static=False,
            access=access,
            type_text="",
            location=location,
            using_from=self._resolve_class_name(base),
        )

    def _parse_enum(self, access: Access) -> list[MemberDecl]:
        self._index += 1  # 'enum'
        texts = self._texts
        members: list[MemberDecl] = []
        enum_name = None
        if self._kinds[self._index] is _IDENT:
            location = self._location(self._index)
            enum_name = texts[self._index]
            self._index += 1
            members.append(
                MemberDecl(
                    name=enum_name,
                    kind=MemberKind.TYPE,
                    is_static=False,
                    access=access,
                    type_text="enum",
                    location=location,
                )
            )
        self._expect_punct("{")
        while texts[self._index] != "}":
            location = self._location(self._index)
            enumerator = self._expect_ident("enumerator name")
            members.append(
                MemberDecl(
                    name=enumerator,
                    kind=MemberKind.ENUMERATOR,
                    is_static=False,
                    access=access,
                    type_text=enum_name or "enum",
                    location=location,
                )
            )
            if texts[self._index] == "=":
                self._index += 1
                while texts[self._index] not in (",", "}"):
                    self._check_eof("in enumerator initializer")
                    if texts[self._index] == "(":
                        self._skip_balanced("(", ")")
                        continue
                    self._index += 1
            if texts[self._index] == ",":
                self._index += 1
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
        texts = self._texts
        if texts[self._index] == "~":
            self._index += 1
            self._expect_ident("destructor name")
        else:
            self._index += 1  # the class-name token
        self._skip_balanced("(", ")")
        if texts[self._index] == ":":
            self._index += 1
            while texts[self._index] != "{":
                self._check_eof("in constructor initializer list")
                text = texts[self._index]
                if text == "(":
                    self._skip_balanced("(", ")")
                    continue
                if text in (";", "}"):
                    raise ParseError(
                        "constructor initializer list without a body",
                        self._location(self._index),
                    )
                self._index += 1
        if texts[self._index] == "{":
            self._skip_balanced("{", "}")
            if texts[self._index] == ";":
                self._index += 1
        else:
            self._skip_to_semicolon()

    def _parse_member_declaration(self, access: Access) -> list[MemberDecl]:
        texts = self._texts
        location = self._location(self._index)
        is_static = False
        # 'virtual' on a member function is irrelevant to lookup (paper,
        # Section 2); 'inline' likewise.  Both are consumed and dropped.
        while texts[self._index] in ("static", "virtual", "inline"):
            if texts[self._index] == "static":
                is_static = True
            self._index += 1
        type_text = self._parse_type_text()
        members: list[MemberDecl] = []
        while True:
            while texts[self._index] in ("*", "&"):
                self._index += 1
            name = self._expect_ident("member name")
            if texts[self._index] == "(":
                self._skip_balanced("(", ")")
                if texts[self._index] == "const":
                    self._index += 1
                kind = MemberKind.FUNCTION
                if texts[self._index] == "{":
                    # Inline method body: balanced skip ends the member.
                    self._skip_balanced("{", "}")
                    members.append(
                        MemberDecl(
                            name, kind, is_static, access, type_text,
                            location,
                        )
                    )
                    if texts[self._index] == ";":
                        self._index += 1
                    return members
            else:
                kind = MemberKind.DATA
                while texts[self._index] == "[":
                    self._skip_balanced("[", "]")
            members.append(
                MemberDecl(name, kind, is_static, access, type_text, location)
            )
            if texts[self._index] == ",":
                self._index += 1
                continue
            self._skip_to_semicolon()
            return members

    def _parse_type_text(self) -> str:
        texts = self._texts
        index = self._index
        parts = []
        while texts[index] in _TYPE_KEYWORDS:
            parts.append(texts[index])
            index += 1
        self._index = index
        if not parts:
            if self._kinds[index] is not _IDENT:
                raise ParseError(
                    f"expected a type, found '{self._found()}'",
                    self._location(index),
                )
            parts.append(self._parse_qualified_name("type name"))
            if texts[self._index] == "<":
                self._skip_angles()  # template arguments are opaque
        elif parts == ["const"] and self._kinds[index] is _IDENT:
            parts.append(self._parse_qualified_name("type name"))
            if texts[self._index] == "<":
                self._skip_angles()
        return " ".join(parts)

    # ------------------------------------------------------------------
    # Functions and file-scope variables
    # ------------------------------------------------------------------

    def _parse_function_or_variable(self):
        texts = self._texts
        index = self._index
        location = self._location(index)
        # Optional return/variable type; 'main() {...}' has none.
        type_text = None
        if texts[index] in _TYPE_KEYWORDS or (
            self._kinds[index] is _IDENT and texts[index + 1] != "("
        ):
            type_text = self._parse_type_text()
        is_pointer = False
        while texts[self._index] in ("*", "&"):
            is_pointer = True
            self._index += 1
        name = self._expect_ident("declarator name")
        if texts[self._index] == "(":
            self._skip_balanced("(", ")")
            function = FunctionDef(name=name, location=location)
            if texts[self._index] == "{":
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
            name=name,
            type_name=self._resolve_class_name(type_text),
            is_pointer=is_pointer,
            location=location,
        )

    def _parse_function_body(self, function: FunctionDef) -> None:
        self._expect_punct("{")
        texts, kinds = self._texts, self._kinds
        depth = 1
        while depth > 0:
            index = self._index
            if index == self._eof:
                raise ParseError(
                    "unterminated function body", self._location(index)
                )
            text = texts[index]
            if text == "{":
                depth += 1
            elif text == "}":
                depth -= 1
            elif kinds[index] is _IDENT:
                self._parse_body_statement(function)
                continue
            self._index = index + 1

    def _parse_body_statement(self, function: FunctionDef) -> None:
        texts = self._texts
        first = self._index
        self._index = first + 1  # the identifier
        text = texts[self._index]
        if text == ":":  # '::' lexes as its own token, so this is a label
            self._index += 1  # a statement label such as 's1:'
            return
        if text in _ACCESS_OPS:
            op = _ACCESS_OPS[text]
            self._index += 1
            member = self._expect_ident("member name")
            qualifier = None
            if op is not AccessOp.SCOPE and texts[self._index] == "::":
                # Qualified access: x.Base::m / p->Base::m.
                self._index += 1
                qualifier = member
                member = self._expect_ident("member name")
            object_name = texts[first]
            if op is AccessOp.SCOPE:
                object_name = self._resolve_class_name(object_name)
            function.accesses.append(
                MemberAccess(
                    object_name=object_name,
                    member=member,
                    op=op,
                    location=self._location(first),
                    qualifier=qualifier,
                )
            )
            self._skip_statement_rest()
            return
        if self._kinds[self._index] is _IDENT or text in ("*", "&"):
            is_pointer = False
            while texts[self._index] in ("*", "&"):
                is_pointer = True
                self._index += 1
            name = self._expect_ident("variable name")
            function.variables.append(
                VarDecl(
                    name=name,
                    type_name=self._resolve_class_name(texts[first]),
                    is_pointer=is_pointer,
                    location=self._location(first),
                )
            )
            self._skip_statement_rest()
            return
        self._skip_statement_rest()

    def _skip_statement_rest(self) -> None:
        texts = self._texts
        while texts[self._index] not in (";", "}"):
            if self._index == self._eof:
                # The enclosing _parse_function_body loop raises the
                # better "unterminated function body" diagnostic.
                return
            if texts[self._index] == "{":
                self._skip_balanced("{", "}")
                continue
            self._index += 1
        if texts[self._index] == ";":
            self._index += 1


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
