package repro.core

import org.scalatest.funsuite.AnyFunSuite

class SerializerSpec extends AnyFunSuite {

  test("serialization follows the paper's format (Example 4)") {
    val pairs = Seq(("Park Name", "River Park"), ("Supervisor", "Vera Onate"),
                    ("City", "Fresno"), ("Country", "USA"))
    assert(Serializer.serialize(pairs) ==
      "[CLS] Park Name River Park [SEP] Supervisor Vera Onate [SEP] City Fresno [SEP] Country USA [SEP]")
  }

  test("missing aligned columns are simply absent (Example 4, Chippewa)") {
    val pairs = Seq(("Park Name", "Chippewa Park"), ("City", "Brandon, MN"), ("Country", "USA"))
    assert(Serializer.serialize(pairs) ==
      "[CLS] Park Name Chippewa Park [SEP] City Brandon, MN [SEP] Country USA [SEP]")
  }

  test("empty tuple serializes to bare specials") {
    assert(Serializer.serialize(Nil) == "[CLS] [SEP]")
  }

  test("tokens include header and value tokens in order") {
    assert(Serializer.tokens(Seq(("City", "New York"))) == Vector("city", "new", "york"))
  }

  test("tokens drop the special markers") {
    val t = Serializer.tokens(Seq(("a", "b")))
    assert(!t.exists(x => x.contains("cls") || x.contains("sep")))
  }

  test("tokens of empty pair list is empty") {
    assert(Serializer.tokens(Nil).isEmpty)
  }

  test("tokens are lowercased") {
    assert(Serializer.tokens(Seq(("Header", "VALUE"))) == Vector("header", "value"))
  }

  test("multi-token values are fully tokenized") {
    assert(Serializer.tokens(Seq(("h", "t0c1v2 com3"))) == Vector("h", "t0c1v2", "com3"))
  }
}
