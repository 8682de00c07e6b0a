#include "subjects/apps/apps.hpp"

#include <stdexcept>

#include "subjects/collections/circular_list.hpp"
#include "subjects/collections/dynarray.hpp"
#include "subjects/collections/hashed_map.hpp"
#include "subjects/collections/hashed_set.hpp"
#include "subjects/collections/linked_buffer.hpp"
#include "subjects/collections/linked_list.hpp"
#include "subjects/collections/linked_list_fixed.hpp"
#include "subjects/collections/ll_map.hpp"
#include "subjects/collections/rb_map.hpp"
#include "subjects/collections/rb_tree.hpp"
#include "subjects/net/server.hpp"
#include "subjects/net/transport.hpp"
#include "subjects/regexp/regexp.hpp"
#include "subjects/selfstar/selfstar.hpp"
#include "subjects/xml/xml.hpp"

namespace subjects::apps {

using namespace subjects::collections;
using namespace subjects::selfstar;

// ---- C++ / Self* suite -------------------------------------------------------

void run_adaptor_chain() {
  AdaptorChain chain;
  chain.add(std::make_unique<TagAdaptor>("sys/"));
  chain.add(std::make_unique<FilterAdaptor>("drop-me"));
  chain.add(std::make_unique<UppercaseAdaptor>());
  chain.add(std::make_unique<CollectorSink>());

  // Steady-state traffic dominates (the paper's C++ apps spend almost all
  // calls in failure atomic methods).
  for (int i = 0; i < 40; ++i) {
    Message m{"topic" + std::to_string(i), "payload-" + std::to_string(i), 0};
    chain.process(m);
  }
  Message dropped{"t", "please drop-me now", 0};
  chain.process(dropped);

  std::vector<Message> batch;
  for (int i = 0; i < 4; ++i)
    batch.push_back(Message{"b" + std::to_string(i), "bulk", 0});
  chain.process_all(batch);

  // One rare maintenance operation per run.
  chain.reconfigure({"tag:re/", "uppercase", "collector"});
  for (int i = 0; i < 20; ++i) {
    Message after{"x" + std::to_string(i), "post-reconfigure", 0};
    chain.process(after);
  }
  chain.clear();
}

void run_std_q() {
  EventQueue q;
  AdaptorChain chain;
  chain.add(std::make_unique<UppercaseAdaptor>());
  chain.add(std::make_unique<CollectorSink>());

  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 40; ++i)
      q.enqueue(Message{"q" + std::to_string(i), "event", i});
    q.pump(chain);
  }

  EventQueue spill;
  for (int i = 0; i < 4; ++i)
    spill.enqueue(Message{"s" + std::to_string(i), "spill", 0});
  spill.drain_to(q);
  q.pump(chain);

  try {
    q.dequeue();  // empty: real exception path
  } catch (const SelfStarError&) {
  }
  q.clear();
}

namespace {
const char* kConfig1 =
    "<config>"
    "<component kind=\"tag\" arg=\"a/\"/>"
    "<component kind=\"uppercase\"/>"
    "<component kind=\"collector\"/>"
    "</config>";
const char* kConfig2 =
    "<config>"
    "<component kind=\"filter\" arg=\"secret\"/>"
    "<component kind=\"tag\" arg=\"b/\"/>"
    "<component kind=\"collector\"/>"
    "<setting name=\"retries\">3</setting>"
    "</config>";
}  // namespace

void run_xml2ctcp() {
  subjects::xml::XmlDocument doc;
  doc.parse(kConfig1);
  doc.validate();

  subjects::net::Transport transport;
  transport.open("alpha");
  transport.open("beta");
  // Steady-state traffic: serialize and ship configuration repeatedly.
  for (int round = 0; round < 24; ++round) {
    transport.send("alpha", doc.serialize());
    transport.send("beta", doc.root_name());
    transport.recv("alpha");
    transport.recv("beta");
  }
  transport.broadcast("shutdown");  // the rare non-atomic operation
  while (transport.channel("alpha").pending() > 0) transport.recv("alpha");
  try {
    transport.send("gamma", "nope");  // unknown endpoint: real exception
  } catch (const subjects::net::NetError&) {
  }
  transport.close_all();
}

void run_xml2cviasc1() {
  subjects::xml::XmlDocument doc;
  doc.parse(kConfig1);
  ComponentFactory factory;
  AdaptorChain chain;
  factory.assemble(doc, chain);
  for (int i = 0; i < 30; ++i) {
    Message m{"m" + std::to_string(i), "via-sc-one", 0};
    chain.process(m);
  }
  doc.add_child("config", "status", "assembled");
  doc.serialize();
}

void run_xml2cviasc2() {
  subjects::xml::XmlDocument doc;
  doc.parse(kConfig2);
  ComponentFactory factory;
  AdaptorChain chain;
  factory.assemble(doc, chain);
  std::vector<Message> batch;
  batch.push_back(Message{"one", "contains secret stuff", 0});
  for (int i = 0; i < 60; ++i)
    batch.push_back(Message{"pub" + std::to_string(i), "public stuff", 0});
  chain.process_all(batch);
  for (int i = 0; i < 10; ++i) doc.count("component");
  doc.remove_all("setting");  // the rare non-atomic operation
  doc.serialize();
}

void run_xml2xml1() {
  subjects::xml::XmlDocument doc;
  doc.parse(
      "<doc><item id=\"1\">alpha</item><item id=\"2\">beta</item>"
      "<note>keep</note><item id=\"3\">gamma</item></doc>");
  doc.validate();
  // Steady-state read/transform traffic; an output buffer on the side
  // (LinkedBuffer used through its failure atomic operations only).
  LinkedBuffer out;
  for (int i = 0; i < 24; ++i) {
    doc.count("item");
    out.append_chunk(doc.first_text("note"));
    doc.attribute("item", "id");
    doc.validate();
  }
  out.to_string();
  doc.rename_all("item", "entry");  // the rare non-atomic operation
  doc.add_child("doc", "generated", "yes");
  doc.remove_first("note");
  doc.serialize();
}

// ---- Java suite ---------------------------------------------------------------

void run_circular_list() {
  CircularList l;
  l.append_all({1, 2, 3, 4, 5});
  l.push_front(0);
  l.push_back(6);
  l.front();
  l.back();
  l.at(3);
  l.set_at(2, 20);
  l.insert_at(4, 40);
  l.remove_at(1);
  l.contains(40);
  l.index_of(6);
  l.rotate(2);
  l.rotate_to(6);  // conditional: mutates only through rotate()
  l.reverse();
  l.pop_front();
  l.pop_back();
  l.append_all({5, 5, 5});
  l.remove_all(5);
  CircularList other;
  other.append_all({100, 200});
  l.splice_front(other);
  // Scratch array used through its failure atomic operations only.
  Dynarray scratch;
  for (int v : l.to_vector()) scratch.push_back(v);
  scratch.contains(100);
  scratch.pop_back();
  try {
    l.at(999);  // real exception path
  } catch (const IndexError&) {
  }
  l.clear();
}

void run_dynarray() {
  Dynarray a;
  a.append_all({3, 1, 4, 1, 5});
  a.push_back(9);
  a.insert_at(2, 7);
  a.at(0);
  a.set(1, 11);
  a.remove_at(3);
  a.index_of(5);
  a.contains(9);
  a.resize(10, 0);
  a.resize(4, 0);
  a.reserve(32);
  a.trim();
  a.extend_with({6, 7});  // conditional: mutates only through append_all()
  Dynarray b;
  b.append_all({8, 8});
  a.take_from(b);
  a.pop_back();
  // Index side-table used through its failure atomic operations only.
  LLMap index;
  for (int v : a.to_vector()) index.put("v" + std::to_string(v), v);
  index.get_or("v8", -1);
  index.contains_key("v9");
  try {
    a.at(-1);  // real exception path
  } catch (const IndexError&) {
  }
  a.clear();
}

void run_hashed_map() {
  HashedMap m;
  for (int i = 0; i < 8; ++i) m.put("k" + std::to_string(i), i);
  m.put("k3", 33);  // overwrite
  m.get("k3");
  m.get_or("missing", -1);
  m.contains_key("k5");
  m.remove("k2");
  m.put_if_absent("k1", 99);  // conditional: mutates only through put()
  m.put_if_absent("new", 9);
  m.keys();
  m.values();
  HashedMap other;
  other.put("x", 1);
  other.put("y", 2);
  m.put_all(other);
  // Value log used through its failure atomic operations only.
  Dynarray log;
  for (int v : m.values()) log.push_back(v);
  log.index_of(9);
  try {
    m.get("absent");  // real exception path
  } catch (const KeyError&) {
  }
  m.clear();
}

void run_hashed_set() {
  HashedSet s;
  s.add_all({1, 2, 3, 4, 5, 6});
  s.add(3);     // duplicate
  s.ensure(9);  // conditional: mutates only through add()
  s.ensure(9);  // already present: no mutation at all
  s.contains(4);
  s.remove(2);
  HashedSet other;
  other.add_all({4, 5, 7, 8});
  s.union_with(other);  // adds 7 and 8: partial progress on failure
  s.intersect(other);
  // Result list used through its failure atomic operations only.
  CircularList result;
  for (int v : s.to_vector()) result.push_back(v);
  result.front();
  result.pop_back();
  s.clear();
}

void run_ll_map() {
  LLMap m;
  m.put("alpha", 1);
  m.put("beta", 2);
  m.put("gamma", 3);
  m.put("beta", 22);  // overwrite
  m.get("alpha");     // move-to-front path
  m.get_or("delta", -1);
  m.contains_key("gamma");
  m.chain_length();
  m.keys();
  m.remove("beta");
  m.put("epsilon", 3);
  m.remove_value(3);
  LLMap other;
  other.put("zeta", 9);
  m.put_all(other);
  // Key list used through its failure atomic operations only.
  Dynarray lengths;
  for (const std::string& k : m.keys())
    lengths.push_back(static_cast<int>(k.size()));
  lengths.contains(4);
  try {
    m.get("absent");  // real exception path
  } catch (const KeyError&) {
  }
  m.clear();
}

void run_linked_buffer() {
  LinkedBuffer b;
  b.append("the quick brown fox jumps over the lazy dog");
  // Spans several chunks: conditional, mutates only through append().
  b.append_line("a log line long enough to span multiple buffer chunks");
  b.peek();
  b.consume(10);
  b.append_chunk("tail");
  b.to_string();
  b.compact();
  LinkedBuffer other;
  other.append("spill-over-content");
  b.drain_from(other);
  // Chunk-size histogram used through its failure atomic operations only.
  LLMap stats;
  stats.put("chunks", b.chunk_count());
  stats.put("bytes", b.size());
  stats.get_or("chunks", 0);
  try {
    b.consume(100000);  // real exception path
  } catch (const EmptyError&) {
  }
  b.clear();
}

void run_linked_list() {
  LinkedList l;
  l.add_all({5, 3, 8, 1});
  l.push_front(0);
  l.push_back(9);
  l.front();
  l.back();
  l.at(2);
  l.set_at(1, 31);
  l.insert_at(3, 7);
  l.remove_at(0);
  l.index_of(8);
  l.contains(1);
  l.insert_sorted(4);
  l.sort();
  l.reverse();
  l.pop_front();
  l.pop_back();
  l.add_all({2, 2});
  l.remove_value(2);
  LinkedList other;
  other.add_all({66, 77});
  l.extend(other);
  // Scratch array used through its failure atomic operations only.
  Dynarray mirror;
  for (int v : l.to_vector()) mirror.push_back(v);
  mirror.index_of(66);
  l.audit();
  try {
    l.at(999);  // real exception path
  } catch (const IndexError&) {
  }
  l.clear();
}

void run_linked_list_fixed() {
  LinkedListFixed l;
  l.add_all({5, 3, 8, 1});
  l.push_front(0);
  l.push_back(9);
  l.front();
  l.back();
  l.at(2);
  l.set_at(1, 31);
  l.insert_at(3, 7);
  l.remove_at(0);
  l.index_of(8);
  l.contains(1);
  l.insert_sorted(4);
  l.sort();
  l.reverse();
  l.pop_front();
  l.pop_back();
  l.add_all({2, 2});
  l.remove_value(2);
  LinkedListFixed other;
  other.add_all({66, 77});
  l.extend(other);
  l.to_vector();
  l.audit();
  try {
    l.at(999);
  } catch (const IndexError&) {
  }
  l.clear();
}

void run_rb_map() {
  RBMap m;
  m.put("delta", 4);
  m.put("alpha", 1);
  m.put("echo", 5);
  m.put("bravo", 2);
  m.put("charlie", 3);
  m.put("alpha", 11);  // overwrite
  m.get("charlie");
  m.get_or("foxtrot", -1);
  m.contains_key("echo");
  m.min_key();
  m.max_key();
  m.keys();
  m.validate();
  m.remove("bravo");
  m.put_if_absent("alpha", 0);  // conditional: mutates only through put()
  m.put_if_absent("hotel", 8);
  RBMap other;
  other.put("golf", 7);
  m.put_all(other);
  // Key-length table used through its failure atomic operations only.
  Dynarray lens;
  for (const std::string& k : m.keys())
    lens.push_back(static_cast<int>(k.size()));
  lens.at(0);
  try {
    m.get("absent");  // real exception path
  } catch (const KeyError&) {
  }
  m.clear();
}

void run_rb_tree() {
  RBTree t;
  t.insert_all({50, 20, 70, 10, 30, 60, 80});
  t.insert(30);  // duplicate
  t.ensure(90);  // conditional: mutates only through insert()
  t.ensure(90);  // already present: no mutation at all
  t.contains(60);
  t.min();
  t.max();
  t.height();
  t.validate();
  t.remove(20);
  t.validate();
  // Sorted output used through failure atomic operations only.
  CircularList ordered;
  for (int k : t.to_sorted_vector()) ordered.push_back(k);
  ordered.front();
  ordered.back();
  try {
    RBTree empty;
    empty.min();  // real exception path
  } catch (const EmptyError&) {
  }
  t.clear();
}

void run_regexp() {
  subjects::regexp::Regexp re;
  re.compile("(ab|cd)*e+f?");
  re.matches("ababcdeef");
  re.matches("nope");
  re.find("xxabcdeefyy", 0);
  re.count_matches("ef abef cdef");
  re.replace_all("ef and abef", "<m>");
  re.reset();
  re.compile("[a-c]+[^x]$");
  re.matches("abcz");
  // Match tallies kept in an atomic-usage side table.
  Dynarray tallies;
  tallies.push_back(re.match_count());
  tallies.push_back(re.node_count());
  tallies.at(0);
  try {
    subjects::regexp::Regexp bad;
    bad.compile("(unclosed");  // real exception path
  } catch (const subjects::regexp::RegexError&) {
  }
}

void run_net_demo() {
  subjects::net::Transport t;
  t.open("a");
  t.open("b");
  t.send("a", "hello");
  t.send("b", "world");
  t.recv("a");
  try {
    t.recv("a");  // drained: real exception path
  } catch (const subjects::net::NetError&) {
  }
  t.close_all();
}

void run_server_demo() {
  subjects::net::Server server;
  server.provision(3);
  // Steady-state request traffic; every request echoes through its routed
  // endpoint and lands in the journal.
  for (int i = 0; i < 12; ++i)
    server.handle("req-" + std::to_string(i));
  try {
    server.handle("");  // invalid request: real exception path
  } catch (const subjects::net::NetError&) {
  }
  server.handle("final");
}

// ---- registry -----------------------------------------------------------------

const std::vector<App>& all_apps() {
  static const std::vector<App> apps = {
      {"adaptorChain", "C++", run_adaptor_chain},
      {"stdQ", "C++", run_std_q},
      {"xml2Ctcp", "C++", run_xml2ctcp},
      {"xml2Cviasc1", "C++", run_xml2cviasc1},
      {"xml2Cviasc2", "C++", run_xml2cviasc2},
      {"xml2xml1", "C++", run_xml2xml1},
      {"CircularList", "Java", run_circular_list},
      {"Dynarray", "Java", run_dynarray},
      {"HashedMap", "Java", run_hashed_map},
      {"HashedSet", "Java", run_hashed_set},
      {"LLMap", "Java", run_ll_map},
      {"LinkedBuffer", "Java", run_linked_buffer},
      {"LinkedList", "Java", run_linked_list},
      {"RBMap", "Java", run_rb_map},
      {"RBTree", "Java", run_rb_tree},
      {"RegExp", "Java", run_regexp},
  };
  return apps;
}

std::vector<App> apps_of(const std::string& language) {
  std::vector<App> out;
  for (const App& a : all_apps())
    if (a.language == language) out.push_back(a);
  return out;
}

const App& app(const std::string& name) {
  for (const App& a : all_apps())
    if (a.name == name) return a;
  // Demo subjects reachable by explicit name only — never part of the
  // Table 1 sweeps (fatomic_cli --all without a soundness gate, CI lint
  // gate).
  static const std::vector<App> hidden = {
      {"lintDemo", "C++", run_lint_demo},
      {"netDemo", "C++", run_net_demo},
      {"ServerDemo", "C++", run_server_demo},
  };
  for (const App& a : hidden)
    if (a.name == name) return a;
  throw std::out_of_range("unknown app: " + name);
}

}  // namespace subjects::apps
