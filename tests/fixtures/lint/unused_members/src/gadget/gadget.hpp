// Planted mini-tree for the member checks of the cross-file unused-api rule:
// constructors and overloads are keyed on their argument counts, so a used
// sibling of another arity does not cover an unused one.
#pragma once

namespace gadget {

class Gadget {
 public:
  Gadget(int size, int weight);
  Gadget(int size, int weight, int mode);
  explicit Gadget(double scale);
  ~Gadget();

  int used_member() const;
  int unused_member() const;
  int resize(int size);
  int resize(int size, int weight);
  int scaled(int x, int factor = 2);
  static int pointed(int x);
  void notify() { raw_.notify(); }

 private:
  struct Raw {
    void notify();
  };
  int hidden() const;
  Raw raw_;
};

}  // namespace gadget
