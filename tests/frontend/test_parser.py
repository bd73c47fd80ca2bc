"""Tests for the C++ subset parser."""

import pytest

from repro.frontend.cpp_ast import AccessOp, ClassDecl, FunctionDef, VarDecl
from repro.frontend.errors import ParseError
from repro.frontend.parser import parse
from repro.hierarchy.members import Access, MemberKind


def only_class(source) -> ClassDecl:
    classes = parse(source).classes()
    assert len(classes) == 1
    return classes[0]


class TestClassHeads:
    def test_empty_class(self):
        decl = only_class("class A {};")
        assert decl.name == "A"
        assert not decl.is_struct
        assert decl.bases == []

    def test_struct(self):
        assert only_class("struct S {};").is_struct

    def test_single_base(self):
        decl = only_class("class B : A {};")
        assert [b.name for b in decl.bases] == ["A"]
        assert not decl.bases[0].virtual

    def test_virtual_base(self):
        decl = only_class("class C : virtual B {};")
        assert decl.bases[0].virtual

    def test_access_and_virtual_in_either_order(self):
        decl = only_class("class C : virtual public A, public virtual B {};")
        assert all(b.virtual for b in decl.bases)
        assert all(b.access is Access.PUBLIC for b in decl.bases)

    def test_default_base_access_class_private(self):
        decl = only_class("class C : A {};")
        assert decl.bases[0].access is Access.PRIVATE

    def test_default_base_access_struct_public(self):
        decl = only_class("struct C : A {};")
        assert decl.bases[0].access is Access.PUBLIC

    def test_multiple_bases_in_order(self):
        decl = only_class("class E : virtual A, virtual B, D {};")
        assert [b.name for b in decl.bases] == ["A", "B", "D"]
        assert [b.virtual for b in decl.bases] == [True, True, False]

    def test_forward_declaration_skipped(self):
        unit = parse("class A; class A {};")
        assert len(unit.classes()) == 1

    def test_missing_semicolon_raises(self):
        with pytest.raises(ParseError):
            parse("class A {}")

    def test_missing_brace_raises(self):
        with pytest.raises(ParseError):
            parse("class A ;{};")

    def test_expected_punct_names_the_identifier_found(self):
        with pytest.raises(ParseError) as exc_info:
            parse("class B {}; class A : public B x {};")
        assert str(exc_info.value) == "1:32: error: expected '{', found 'x'"

    def test_expected_punct_at_eof_names_eof(self):
        with pytest.raises(ParseError) as exc_info:
            parse("class A : public B")
        assert str(exc_info.value) == (
            "1:19: error: expected '{', found '<eof>'"
        )


class TestMembers:
    def test_data_member(self):
        decl = only_class("class A { int m; };")
        member = decl.members[0]
        assert member.name == "m"
        assert member.kind is MemberKind.DATA
        assert member.type_text == "int"

    def test_member_function(self):
        decl = only_class("class A { void m(); };")
        assert decl.members[0].kind is MemberKind.FUNCTION

    def test_member_function_with_params_and_body(self):
        decl = only_class("class A { int f(int a, char b) { return 0; } };")
        assert decl.members[0].name == "f"

    def test_virtual_member_function(self):
        decl = only_class("class A { virtual void m(); };")
        assert decl.members[0].kind is MemberKind.FUNCTION

    def test_pure_virtual(self):
        decl = only_class("class A { virtual void m() = 0; };")
        assert decl.members[0].name == "m"

    def test_static_member(self):
        decl = only_class("class A { static int s; };")
        assert decl.members[0].is_static

    def test_static_member_function(self):
        decl = only_class("class A { static void f(); };")
        member = decl.members[0]
        assert member.is_static and member.kind is MemberKind.FUNCTION

    def test_comma_separated_declarators(self):
        decl = only_class("class A { int a, b, c; };")
        assert [m.name for m in decl.members] == ["a", "b", "c"]

    def test_pointer_members(self):
        decl = only_class("class A { char *p; A *next; };")
        assert [m.name for m in decl.members] == ["p", "next"]

    def test_array_member(self):
        decl = only_class("class A { int buffer[16]; };")
        assert decl.members[0].name == "buffer"

    def test_const_member(self):
        decl = only_class("class A { const int k; };")
        assert decl.members[0].name == "k"

    def test_class_typed_member(self):
        unit = parse("class A {}; class B { A value; };")
        assert unit.classes()[1].members[0].type_text == "A"


class TestAccessSpecifiers:
    def test_default_private_in_class(self):
        decl = only_class("class A { int m; };")
        assert decl.members[0].access is Access.PRIVATE

    def test_default_public_in_struct(self):
        decl = only_class("struct A { int m; };")
        assert decl.members[0].access is Access.PUBLIC

    def test_sections(self):
        decl = only_class(
            "class A { int a; public: int b; protected: int c; };"
        )
        accesses = {m.name: m.access for m in decl.members}
        assert accesses == {
            "a": Access.PRIVATE,
            "b": Access.PUBLIC,
            "c": Access.PROTECTED,
        }


class TestTypedefsEnumsNested:
    def test_typedef(self):
        decl = only_class("class A { typedef int size_type; };")
        member = decl.members[0]
        assert member.name == "size_type"
        assert member.kind is MemberKind.TYPE

    def test_enum_with_name(self):
        decl = only_class("class A { enum Color { Red, Green = 3, Blue }; };")
        names = {m.name: m.kind for m in decl.members}
        assert names["Color"] is MemberKind.TYPE
        assert names["Red"] is MemberKind.ENUMERATOR
        assert names["Blue"] is MemberKind.ENUMERATOR

    def test_anonymous_enum(self):
        decl = only_class("class A { enum { X, Y }; };")
        assert [m.name for m in decl.members] == ["X", "Y"]

    def test_nested_class(self):
        decl = only_class("class A { class Inner { int x; }; };")
        assert decl.nested[0].name == "Inner"
        assert decl.members[0].name == "Inner"
        assert decl.members[0].kind is MemberKind.TYPE


class TestSpecialMembers:
    def test_constructor_skipped(self):
        decl = only_class("class A { A(); int m; };")
        assert [m.name for m in decl.members] == ["m"]

    def test_constructor_with_body_skipped(self):
        decl = only_class("class A { A() { } int m; };")
        assert [m.name for m in decl.members] == ["m"]

    def test_destructor_skipped(self):
        decl = only_class("class A { ~A(); int m; };")
        assert [m.name for m in decl.members] == ["m"]


class TestFunctionsAndBodies:
    def test_main_without_return_type(self):
        unit = parse("main() { }")
        assert isinstance(unit.declarations[0], FunctionDef)

    def test_typed_function(self):
        unit = parse("int run() { }")
        assert unit.functions()[0].name == "run"

    def test_local_variable(self):
        unit = parse("main() { E e; }")
        var = unit.functions()[0].variables[0]
        assert var == VarDecl("e", "E", False, var.location)

    def test_pointer_variable(self):
        unit = parse("main() { E *p; }")
        assert unit.functions()[0].variables[0].is_pointer

    def test_dot_access(self):
        unit = parse("main() { E e; e.m = 10; }")
        access = unit.functions()[0].accesses[0]
        assert (access.object_name, access.member) == ("e", "m")
        assert access.op is AccessOp.DOT

    def test_arrow_access_with_call(self):
        unit = parse("main() { E *p; p->m(); }")
        access = unit.functions()[0].accesses[0]
        assert access.op is AccessOp.ARROW

    def test_scope_access(self):
        unit = parse("main() { E::m; }")
        access = unit.functions()[0].accesses[0]
        assert access.op is AccessOp.SCOPE
        assert access.object_name == "E"

    def test_statement_labels_skipped(self):
        unit = parse("main() { s1: E e; s2: e.m = 10; }")
        function = unit.functions()[0]
        assert len(function.variables) == 1
        assert len(function.accesses) == 1

    def test_file_scope_variable(self):
        unit = parse("class E {}; E e;")
        assert unit.file_scope_variables()[0].name == "e"

    def test_unterminated_body_raises(self):
        with pytest.raises(ParseError):
            parse("main() { E e;")


class TestPaperPrograms:
    def test_figure1_program(self):
        from repro.workloads.paper_figures import figure1_source

        unit = parse(figure1_source())
        assert [c.name for c in unit.classes()] == ["A", "B", "C", "D", "E"]

    def test_figure9_program(self):
        from repro.workloads.paper_figures import figure9_source

        unit = parse(figure9_source())
        e = unit.classes()[-1]
        assert [b.name for b in e.bases] == ["A", "B", "D"]
        assert [b.virtual for b in e.bases] == [True, True, False]

    def test_figure9_full_program_with_main(self):
        from repro.workloads.paper_figures import figure9_source

        source = figure9_source() + "\nmain() { E e; s2: e.m = 10; }\n"
        unit = parse(source)
        assert unit.functions()[0].accesses[0].member == "m"
