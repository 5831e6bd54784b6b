package petstore

import (
	"fmt"

	"wadeploy/internal/container"
	"wadeploy/internal/sim"
	"wadeploy/internal/sqldb"
	"wadeploy/internal/web"
)

// Page names (Tables 2 and 3).
const (
	PageMain     = "Main"
	PageCategory = "Category"
	PageProduct  = "Product"
	PageItem     = "Item"
	PageSearch   = "Search"

	PageSignin       = "Signin"
	PageVerifySignin = "VerifySignin"
	PageCart         = "Cart"
	PageCheckout     = "Checkout"
	PagePlaceOrder   = "PlaceOrder"
	PageBilling      = "Billing"
	PageCommit       = "Commit"
	PageSignout      = "Signout"
)

// BrowserPages lists the browser-session pages with their Table 2 weights.
var BrowserPages = []struct {
	Page   string
	Weight int
}{
	{PageMain, 5},
	{PageCategory, 15},
	{PageProduct, 30},
	{PageItem, 45},
	{PageSearch, 5},
}

// BuyerPages is the fixed buyer-session page sequence (Table 3).
var BuyerPages = []string{
	PageMain, PageSignin, PageVerifySignin, PageCart, PageCheckout,
	PagePlaceOrder, PageBilling, PageCommit, PageSignout,
}

// render charges the page's render cost on srv and returns its response.
func (a *App) render(p *sim.Proc, srv *container.Server, page string) *web.Response {
	return srv.Render(p, page, a.costs[page])
}

// registerPages installs all servlets on the site's web container.
func (a *App) registerPages(s *site) {
	srv := s.srv
	w := srv.Web()

	w.Handle(PageMain, func(p *sim.Proc, r *web.Request) (*web.Response, error) {
		return a.render(p, srv, PageMain), nil
	})

	catalog(a, srv, &a.categories, PageCategory, "getProductsOf", "cat")
	catalog(a, srv, &a.products, PageProduct, "getItemsOf", "product")
	catalog(a, srv, &a.rows, PageSearch, "search", "q")

	w.Handle(PageItem, func(p *sim.Proc, r *web.Request) (*web.Response, error) {
		if _, err := a.getItemVia(p, s, sqldb.Str(r.Param("item"))); err != nil {
			return nil, err
		}
		return a.render(p, srv, PageItem), nil
	})

	w.Handle(PageSignin, func(p *sim.Proc, r *web.Request) (*web.Response, error) {
		return a.render(p, srv, PageSignin), nil
	})

	// VerifySignin makes the pattern's two RMI calls: Customer creation
	// (authentication) and profile retrieval for later pages.
	w.Handle(PageVerifySignin, func(p *sim.Proc, r *web.Request) (*web.Response, error) {
		stub, err := srv.StubFor(p, a.d.Main.Name(), BeanCustomer)
		if err != nil {
			return nil, err
		}
		user, pass := r.Param("user"), r.Param("password")
		ok, err := container.Invoke(p, stub, &a.oks, "createCustomer", sqldb.Str(user), sqldb.Str(pass))
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("petstore: bad credentials for %s", user)
		}
		// The session keeps the profile, so the call passes no record.
		profile, err := stub.Invoke(p, "getProfile", sqldb.Str(user))
		if err != nil {
			return nil, err
		}
		r.Session.Set("user", user)
		r.Session.Set("profile", profile)
		return a.render(p, srv, PageVerifySignin), nil
	})

	w.Handle(PageCart, func(p *sim.Proc, r *web.Request) (*web.Response, error) {
		if err := a.fireEvent(p, srv, r.Session); err != nil {
			return nil, err
		}
		cart, err := srv.StubFor(p, srv.Name(), BeanCart)
		if err != nil {
			return nil, err
		}
		if _, err := container.Invoke(p, cart, &a.counts, "addItem", sqldb.Str(r.Session.ID), sqldb.Str(r.Param("item"))); err != nil {
			return nil, err
		}
		return a.render(p, srv, PageCart), nil
	})

	w.Handle(PageCheckout, func(p *sim.Proc, r *web.Request) (*web.Response, error) {
		if err := a.fireEvent(p, srv, r.Session); err != nil {
			return nil, err
		}
		cart, err := srv.StubFor(p, srv.Name(), BeanCart)
		if err != nil {
			return nil, err
		}
		if _, err := container.Invoke(p, cart, &a.summaries, "summary", sqldb.Str(r.Session.ID)); err != nil {
			return nil, err
		}
		return a.render(p, srv, PageCheckout), nil
	})

	w.Handle(PagePlaceOrder, func(p *sim.Proc, r *web.Request) (*web.Response, error) {
		return a.render(p, srv, PagePlaceOrder), nil
	})

	w.Handle(PageBilling, func(p *sim.Proc, r *web.Request) (*web.Response, error) {
		// Billing and shipping come from the profile cached in the web
		// session at VerifySignin — no remote access.
		if r.Session.Get("profile") == nil {
			return nil, fmt.Errorf("petstore: billing without signin")
		}
		return a.render(p, srv, PageBilling), nil
	})

	w.Handle(PageCommit, func(p *sim.Proc, r *web.Request) (*web.Response, error) {
		if err := a.fireEvent(p, srv, r.Session); err != nil {
			return nil, err
		}
		user, _ := r.Session.Get("user").(string)
		if user == "" {
			return nil, fmt.Errorf("petstore: commit without signin")
		}
		cart, err := srv.StubFor(p, srv.Name(), BeanCart)
		if err != nil {
			return nil, err
		}
		itemID, err := container.Invoke(p, cart, &a.strs, "firstItem", sqldb.Str(r.Session.ID))
		if err != nil {
			return nil, err
		}
		if itemID == "" {
			return nil, fmt.Errorf("petstore: commit with empty cart")
		}
		customer, err := srv.StubFor(p, a.d.Main.Name(), BeanCustomer)
		if err != nil {
			return nil, err
		}
		if _, err := container.Invoke(p, customer, &a.counts, "placeOrder", sqldb.Str(user), sqldb.Str(itemID), sqldb.Int(1)); err != nil {
			return nil, err
		}
		return a.render(p, srv, PageCommit), nil
	})

	w.Handle(PageSignout, func(p *sim.Proc, r *web.Request) (*web.Response, error) {
		cart, err := srv.StubFor(p, srv.Name(), BeanCart)
		if err != nil {
			return nil, err
		}
		if _, err := cart.Invoke(p, "clear", sqldb.Str(r.Session.ID)); err != nil {
			return nil, err
		}
		a.carts[srv.Name()].Remove(r.Session.ID)
		r.Session.Delete("user")
		r.Session.Delete("profile")
		return a.render(p, srv, PageSignout), nil
	})
}

// catalog wires page on srv to one call of the Catalog srv resolves, with the
// request parameter named param, answered in a record from free.
func catalog[T any](a *App, srv *container.Server, free *sim.Free[T], page, method, param string) {
	srv.Web().Handle(page, func(p *sim.Proc, r *web.Request) (*web.Response, error) {
		stub, err := a.d.FacadeStub(p, srv, BeanCatalog)
		if err == nil {
			_, err = container.Invoke(p, stub, free, method, sqldb.Str(r.Param(param)))
		}
		if err != nil {
			return nil, err
		}
		return a.render(p, srv, page), nil
	})
}

// fireEvent routes a user action through the ShoppingClientController
// stateful bean (the EJB-tier half of the MVC controller).
func (a *App) fireEvent(p *sim.Proc, srv *container.Server, sess *web.Session) error {
	ctrl, err := srv.StubFor(p, srv.Name(), BeanController)
	if err != nil {
		return err
	}
	_, err = ctrl.Invoke(p, "handleEvent", sqldb.Str(sess.ID))
	return err
}
